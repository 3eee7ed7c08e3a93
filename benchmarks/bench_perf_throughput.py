"""PERF — wall-clock throughput of the batched execution path.

Every other experiment in this repo measures *virtual* time; this suite
is the wall-clock baseline the ROADMAP's "as fast as the hardware
allows" goal is tracked against.  It runs the same workload down the
scalar per-tuple path and the first-class-batch path (engine
``batch_execution``, operator ``process_batch``, transport tuple-train
frames) and reports tuples/second for both, asserting the two paths
produce byte-identical outputs and identical virtual clocks.

Topologies:

* ``pipeline``  — E2's 2000-tuple filter→map chain (the acceptance
  topology: batch must be ≥ 2x scalar here).
* ``fanout``    — CaseFilter routing to four output streams.
* ``window``    — filter→Tumble(groupby)→map windowed aggregation.
* ``fusion``    — six-stage stateless chain run down the batched path
  with superbox compilation off vs on; fused must be ≥ 1.3x and its
  observability snapshot byte-identical to the unfused run.
* ``pipeline_columnar`` — the acceptance pipeline with compiled column
  expressions, scalar per-tuple path vs columnar trains pushed via
  ``push_train`` (struct-of-arrays, vectorized kernels, lazy outputs);
  outputs, virtual clock and obs snapshot must be identical.
* ``fusion_columnar`` — the six-stage superbox chain with compiled
  operators: a fused run of N boxes is N masked array ops over one
  columnar train.  Must hold a 4x floor over scalar.
* ``window_columnar`` — a four-stage compiled stateless chain
  terminating at a run-mode Tumble with the columnar window kernel:
  the fused run extends *through* the window tail, so the whole chain
  is array ops with no materialization barrier at the window.
  Must hold a 3x floor over the per-tuple reference.  ``--window-xl N``
  additionally records an informational million-tuple-class row
  (``window_columnar_xl``): columnar-only throughput at scale with an
  exact conservation check on the emitted window sums.
* ``sched_wide`` — CaseFilter fan-out to 24 branches under the
  longest-queue scheduler (exercises the sparse queued-count index).
* ``transport`` — multiplexed transport shipping one train frame per
  batch vs one message per tuple.
* ``parallel_scale`` — wall-clock throughput of the real
  multiprocessing backend (``repro.parallel``) at 1 vs 2 workers on a
  latency-bound two-stage pipeline.  Recorded as *informational*: the
  speedup is written to BENCH_PERF.json but carries no floor gate yet
  (outputs still must match).

Run standalone to emit ``BENCH_PERF.json``::

    PYTHONPATH=src python benchmarks/bench_perf_throughput.py \
        [--tuples N] [--train N] [--repeats N] [--out PATH] [--check] \
        [--baseline PATH] [--window-xl N]

``--check`` exits non-zero if any batch path is slower than its scalar
counterpart, or if the observability layer costs more than 5% of batch
throughput (the CI perf-smoke gate).  ``--baseline`` additionally fails
the check when any scenario's batch speedup regresses more than 20%
below a committed ``BENCH_PERF.json`` (skipped with a warning when the
baseline was recorded at a different workload config).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

import numpy as np

from repro.core.columnar import ColumnarTrain, col
from repro.core.engine import AuroraEngine
from repro.core.operators.case_filter import CaseFilter
from repro.core.operators.filter import Filter
from repro.core.operators.map import Map, columnar_map
from repro.core.operators.tumble import Tumble
from repro.core.query import QueryNetwork
from repro.core.scheduler import make_scheduler
from repro.core.tuples import make_stream
from repro.obs.export import dumps, snapshot
from repro.obs.registry import MetricsRegistry
from repro.network.transport import (
    MultiplexedTransport,
    StreamMessage,
    TupleTrainMessage,
)

DEFAULT_TUPLES = 2000
DEFAULT_TRAIN = 100
DEFAULT_REPEATS = 5


# -- topologies ---------------------------------------------------------------


def pipeline_network():
    """E2's topology: the acceptance pipeline."""
    net = QueryNetwork()
    net.add_box("f", Filter(lambda t: t["A"] % 2 == 0, cost_per_tuple=0.0005))
    net.add_box("m", Map(lambda v: {"A": v["A"] + 1}, cost_per_tuple=0.0005))
    net.connect("in:src", "f")
    net.connect("f", "m")
    net.connect("m", "out:sink")
    return net, ["sink"]


def fanout_network():
    net = QueryNetwork()
    net.add_box("route", CaseFilter(
        [lambda t: t["A"] % 4 == 0, lambda t: t["A"] % 4 == 1, lambda t: t["A"] % 4 == 2],
        with_else_port=True,
        cost_per_tuple=0.0005,
    ))
    net.connect("in:src", "route")
    for port, name in enumerate(("q0", "q1", "q2", "rest")):
        net.connect(("route", port), f"out:{name}")
    return net, ["q0", "q1", "q2", "rest"]


def window_network():
    net = QueryNetwork()
    net.add_box("f", Filter(lambda t: t["B"] >= 0, cost_per_tuple=0.0005))
    net.add_box("t", Tumble("sum", groupby=("A",), value_attr="B",
                            cost_per_tuple=0.001))
    net.add_box("m", Map(lambda v: dict(v, doubled=v["result"] * 2),
                         cost_per_tuple=0.0005))
    net.connect("in:src", "f")
    net.connect("f", "t")
    net.connect("t", "m")
    net.connect("m", "out:agg")
    return net, ["agg"]


def fusion_network():
    """Six-stage stateless chain: the superbox compilation target.

    High-survival filters keep trains full through every interior arc,
    so the per-stage queue/claim bookkeeping the superbox skips is paid
    on (nearly) every tuple in the unfused run.
    """
    net = QueryNetwork()
    prev = "in:src"
    for i in range(6):
        box_id = f"s{i}"
        if i == 5:
            net.add_box(box_id, Map(
                lambda v: {"A": v["A"] + 1, "B": v["B"]}, cost_per_tuple=0.0005))
        else:
            net.add_box(box_id, Filter(
                lambda t, m=i + 13: t["A"] % m != 0, cost_per_tuple=0.0005))
        net.connect(prev, box_id)
        prev = box_id
    net.connect(prev, "out:sink")
    return net, ["sink"]


def pipeline_columnar_network():
    """The acceptance pipeline with *compiled* operators.

    Same topology, costs and selectivity as :func:`pipeline_network`,
    but the predicate and projection are declarative column expressions,
    so the engine's columnar fast path can run them as vectorized
    kernels without touching Python per tuple.
    """
    net = QueryNetwork()
    net.add_box("f", Filter(col("A") % 2 == 0, cost_per_tuple=0.0005))
    net.add_box("m", columnar_map({"A": col("A") + 1}, cost_per_tuple=0.0005))
    net.connect("in:src", "f")
    net.connect("f", "m")
    net.connect("m", "out:sink")
    return net, ["sink"]


def fusion_columnar_network():
    """The six-stage superbox chain with compiled operators.

    The fused run of N boxes becomes N masked array ops over one
    columnar train — zero per-tuple Python between claim and emission.
    """
    net = QueryNetwork()
    prev = "in:src"
    for i in range(6):
        box_id = f"s{i}"
        if i == 5:
            net.add_box(box_id, columnar_map(
                {"A": col("A") + 1, "B": col("B")}, cost_per_tuple=0.0005))
        else:
            net.add_box(box_id, Filter(
                col("A") % (i + 13) != 0, cost_per_tuple=0.0005))
        net.connect(prev, box_id)
        prev = box_id
    net.connect(prev, "out:sink")
    return net, ["sink"]


def window_columnar_network():
    """Compiled stateless stages feeding a run-mode Tumble window.

    The chain mirrors ``fusion_network`` — high-survival filters and
    projections that keep trains full through every interior arc — but
    terminates at a stateful Tumble instead of a stateless map.  The
    Tumble tail ships a columnar window kernel, so superbox compilation
    extends the fused run *through* it: one claim sweeps the train
    through the filter masks, the projections, and vectorized
    run-boundary detection without a materialization barrier at the
    window.
    """
    net = QueryNetwork()
    net.add_box("f1", Filter(col("A") % 17 != 0, cost_per_tuple=0.0005))
    net.add_box("m1", columnar_map(
        {"G": col("G"), "A": col("A") + 1}, cost_per_tuple=0.0005))
    net.add_box("f2", Filter(col("A") < 17, cost_per_tuple=0.0005))
    net.add_box("m2", columnar_map(
        {"G": col("G"), "A": col("A") * 2}, cost_per_tuple=0.0005))
    net.add_box("w", Tumble("sum", groupby=("G",), value_attr="A",
                            result_attr="A", cost_per_tuple=0.001))
    net.connect("in:src", "f1")
    net.connect("f1", "m1")
    net.connect("m1", "f2")
    net.connect("f2", "m2")
    net.connect("m2", "w")
    net.connect("w", "out:agg")
    return net, ["agg"]


def wide_sched_network(n_branches: int = 24):
    """A 24-way CaseFilter fan-out: scheduler choice dominated by how
    fast 'which box has the longest queue' can be answered."""
    net = QueryNetwork()
    net.add_box("route", CaseFilter(
        [lambda t, k=k: t["A"] % n_branches == k for k in range(n_branches - 1)],
        with_else_port=True,
        cost_per_tuple=0.0005,
    ))
    net.connect("in:src", "route")
    outputs = []
    for port in range(n_branches):
        mid = f"m{port}"
        net.add_box(mid, Map(lambda v: dict(v), cost_per_tuple=0.0005))
        net.connect(("route", port), mid)
        net.connect(mid, f"out:o{port}")
        outputs.append(f"o{port}")
    return net, outputs


def make_workload(n_tuples: int):
    return make_stream(
        [{"A": i % 17, "B": (i * 7) % 23} for i in range(n_tuples)], spacing=0.0
    )


def make_window_workload(n_tuples: int):
    """Grouped workload for the windowed scenarios: key runs of 8 (about
    7 after the high-survival filters), values cycling 0..16."""
    return make_stream(
        [{"G": (i // 8) % 7, "A": i % 17} for i in range(n_tuples)], spacing=0.0
    )


# -- engine measurement -------------------------------------------------------


def run_engine_once(build, stream, batch: bool, train_size: int,
                    metrics: MetricsRegistry | None = None,
                    fusion: bool = True, scheduler: str | None = None):
    net, outputs = build()
    engine = AuroraEngine(
        net,
        scheduler=make_scheduler(scheduler) if scheduler else None,
        train_size=train_size,
        batch_execution=batch,
        scheduling_overhead=0.002,
        metrics=metrics,
        fusion=fusion,
    )
    start = time.perf_counter()
    engine.push_many("src", stream)
    engine.run_until_idle()
    engine.flush()
    elapsed = time.perf_counter() - start
    emitted = {
        name: [(t.values, t.timestamp) for t in engine.outputs[name]]
        for name in outputs
    }
    return elapsed, emitted, engine.clock


def measure_engine(build, stream, train_size: int, repeats: int,
                   scheduler: str | None = None):
    """Best-of-``repeats`` throughput for scalar and batch, plus checks.

    Each repeat runs the two modes back-to-back (paired, so host-level
    load drift hits both sides of a ratio equally) and takes the better
    of two runs per mode: single timed regions are a few milliseconds
    at the CI workload size, so one scheduler blip would otherwise
    dominate a sample.  The reported speedup is the larger of the best
    paired ratio and the ratio of global best times — noise only ever
    adds time, so per-mode minima are the cleanest point estimates.
    """
    best = {"scalar": float("inf"), "batch": float("inf")}
    best_ratio = 0.0
    reference = {}
    for _ in range(repeats):
        paired = {}
        for mode, batch in (("scalar", False), ("batch", True)):
            elapsed = float("inf")
            for _inner in range(2):
                # "scalar" is the per-tuple reference: box by box, no
                # superboxes (fusion rides the batch path only).
                once, emitted, clock = run_engine_once(
                    build, stream, batch, train_size, scheduler=scheduler,
                    fusion=batch)
                elapsed = min(elapsed, once)
            paired[mode] = elapsed
            best[mode] = min(best[mode], elapsed)
            reference[mode] = (emitted, clock)
        best_ratio = max(best_ratio, paired["scalar"] / paired["batch"])
    best_ratio = max(best_ratio, best["scalar"] / best["batch"])
    scalar_out, scalar_clock = reference["scalar"]
    batch_out, batch_clock = reference["batch"]
    return {
        "scalar_tps": round(len(stream) / best["scalar"]),
        "batch_tps": round(len(stream) / best["batch"]),
        "speedup": round(best_ratio, 3),
        "outputs_match": scalar_out == batch_out,
        "virtual_time_match": scalar_clock == batch_clock,
        "virtual_time": scalar_clock,
    }


def measure_fusion(build, stream, train_size: int, repeats: int):
    """Superbox compilation: batched path with fusion off vs on.

    Reuses the generic scalar/batch report keys so the baseline and
    check machinery apply unchanged: ``scalar_tps`` is the unfused
    batched path, ``batch_tps`` the fused one.  Paired repeats, inner
    best-of-2 per mode, speedup = max(best paired ratio, ratio of
    global bests) — same estimator as :func:`measure_engine`.
    ``obs_match`` asserts the fused run's metrics snapshot is
    byte-identical to the unfused run's — fusion must not change any
    logical signal.
    """
    best = {"unfused": float("inf"), "fused": float("inf")}
    best_ratio = 0.0
    reference = {}
    snapshots = {}
    for _ in range(repeats):
        paired = {}
        for mode, fusion in (("unfused", False), ("fused", True)):
            elapsed = float("inf")
            for _inner in range(2):
                metrics = MetricsRegistry()
                once, emitted, clock = run_engine_once(
                    build, stream, True, train_size, metrics=metrics,
                    fusion=fusion)
                elapsed = min(elapsed, once)
            paired[mode] = elapsed
            best[mode] = min(best[mode], elapsed)
            reference[mode] = (emitted, clock)
            snapshots[mode] = dumps(snapshot(metrics))
        best_ratio = max(best_ratio, paired["unfused"] / paired["fused"])
    best_ratio = max(best_ratio, best["unfused"] / best["fused"])
    return {
        "scalar_tps": round(len(stream) / best["unfused"]),
        "batch_tps": round(len(stream) / best["fused"]),
        "speedup": round(best_ratio, 3),
        "outputs_match": reference["unfused"][0] == reference["fused"][0],
        "virtual_time_match": reference["unfused"][1] == reference["fused"][1],
        "virtual_time": reference["fused"][1],
        "obs_match": snapshots["unfused"] == snapshots["fused"],
    }


def run_engine_columnar_once(build, stream, train_size: int,
                             metrics: MetricsRegistry | None = None):
    """One columnar run: trains are encoded outside the timed region
    (the wire delivers columnar frames already) and outputs decode
    lazily after the clock stops — the timed region is pure engine."""
    net, outputs = build()
    engine = AuroraEngine(
        net,
        train_size=train_size,
        batch_execution=True,
        fusion=True,
        scheduling_overhead=0.002,
        metrics=metrics,
    )
    trains = [
        ColumnarTrain.from_tuples(stream[i:i + train_size])
        for i in range(0, len(stream), train_size)
    ]
    start = time.perf_counter()
    for train in trains:
        engine.push_train("src", train)
    engine.run_until_idle()
    engine.flush()
    elapsed = time.perf_counter() - start
    emitted = {
        name: [(t.values, t.timestamp) for t in engine.outputs[name]]
        for name in outputs
    }
    return elapsed, emitted, engine.clock


def measure_columnar(build, stream, train_size: int, repeats: int):
    """Reference per-tuple path vs the fused columnar train path.

    The baseline is the engine's scalar reference path with superbox
    compilation off — the row-at-a-time interpretation every other mode
    is defined against (the fused-vs-unfused delta on its own is the
    ``fusion`` scenario's job).  The measured side runs the full stack:
    columnar trains in, compiled column kernels inside a superbox,
    lazy materialization at the output.  Reuses the generic report keys
    (``scalar_tps``/``batch_tps``) so the baseline and check machinery
    apply unchanged.  Like
    :func:`measure_obs_overhead`, each repeat runs the two paths
    back-to-back and the best paired ratio is the reported speedup, so
    host-level load drift between repeats cannot masquerade as a
    columnar regression.  Because one columnar pass over the workload is
    sub-millisecond, each repeat times both paths three times
    (symmetrically) and keeps the inner minimum — a single scheduler
    blip on a 0.5 ms sample would otherwise swing the ratio by double
    digits.  The reported speedup is the larger of the best paired
    ratio and the ratio of global best times: noise only ever adds
    time, so per-mode minima are the cleanest point estimates, while
    the paired ratios guard against drift between the two sides.
    ``obs_match`` asserts the columnar run's metrics snapshot is
    byte-identical to the scalar run's — the representation change must
    not move any logical signal.
    """
    best = {"scalar": float("inf"), "columnar": float("inf")}
    best_ratio = 0.0
    reference = {}
    snapshots = {}
    for _ in range(repeats):
        paired = {}
        for mode in ("scalar", "columnar"):
            elapsed = float("inf")
            for _inner in range(3):
                metrics = MetricsRegistry()
                if mode == "scalar":
                    once, emitted, clock = run_engine_once(
                        build, stream, False, train_size, metrics=metrics,
                        fusion=False)
                else:
                    once, emitted, clock = run_engine_columnar_once(
                        build, stream, train_size, metrics=metrics)
                elapsed = min(elapsed, once)
            paired[mode] = elapsed
            best[mode] = min(best[mode], elapsed)
            reference[mode] = (emitted, clock)
            snapshots[mode] = dumps(snapshot(metrics))
        best_ratio = max(best_ratio, paired["scalar"] / paired["columnar"])
    best_ratio = max(best_ratio, best["scalar"] / best["columnar"])
    return {
        "scalar_tps": round(len(stream) / best["scalar"]),
        "batch_tps": round(len(stream) / best["columnar"]),
        "speedup": round(best_ratio, 3),
        "outputs_match": reference["scalar"][0] == reference["columnar"][0],
        "virtual_time_match": reference["scalar"][1] == reference["columnar"][1],
        "virtual_time": reference["columnar"][1],
        "obs_match": snapshots["scalar"] == snapshots["columnar"],
    }


def measure_obs_overhead(build, stream, train_size: int, repeats: int):
    """Batch-path throughput with the metrics registry on vs off.

    The registry is designed to stay enabled in production (train-level
    increments, cached handles), so the gate is tight: enabled must keep
    >= 95% of disabled throughput.  Each repeat runs the two modes
    back-to-back and the best paired ratio wins, so host-level load
    drift between repeats cannot masquerade as registry overhead.
    Each repeat times both modes three times and keeps the inner
    minimum — the batched run is around a millisecond, short enough for
    one scheduler blip to fake a 10% "overhead".  The reported ratio is
    the larger of the best paired ratio and the ratio of global best
    times — noise only ever adds time, so per-mode minima are the
    cleanest point estimates.  ``ratio`` is that value capped at 1.0
    (what ``--check`` gates); ``ratio_uncapped`` reports it as measured.
    """
    best = {"disabled": float("inf"), "enabled": float("inf")}
    best_ratio = 0.0
    reference = {}
    for _ in range(max(repeats, 3)):
        paired = {}
        for mode, enabled in (("disabled", False), ("enabled", True)):
            elapsed = float("inf")
            for _inner in range(3):
                once, emitted, clock = run_engine_once(
                    build, stream, True, train_size,
                    metrics=MetricsRegistry(enabled=enabled),
                )
                elapsed = min(elapsed, once)
            paired[mode] = elapsed
            best[mode] = min(best[mode], elapsed)
            reference[mode] = (emitted, clock)
        best_ratio = max(best_ratio, paired["disabled"] / paired["enabled"])
    best_ratio = max(best_ratio, best["disabled"] / best["enabled"])
    return {
        "disabled_tps": round(len(stream) / best["disabled"]),
        "enabled_tps": round(len(stream) / best["enabled"]),
        "ratio": round(min(best_ratio, 1.0), 3),
        "ratio_uncapped": round(best_ratio, 3),
        "outputs_match": reference["disabled"] == reference["enabled"],
    }


# -- transport measurement ----------------------------------------------------


def measure_transport(n_tuples: int, train_size: int, repeats: int,
                      tuple_bytes: int = 100, header_bytes: int = 24):
    """One message per tuple vs one train frame per batch.

    The batch side times about a dozen enqueues — tens of
    microseconds — so single samples swing wildly.  Both modes run
    back-to-back within each repeat (paired, so host drift hits both
    sides of a ratio equally), each sampled best-of-2, and the best
    paired ratio is the reported speedup.
    """

    def sample(mode: str):
        transport = MultiplexedTransport(
            bandwidth=1e9, framing_overhead=header_bytes
        )
        start = time.perf_counter()
        if mode == "scalar":
            for _ in range(n_tuples):
                transport.enqueue(StreamMessage("s", size=tuple_bytes))
        else:
            full, rest = divmod(n_tuples, train_size)
            for _ in range(full):
                transport.enqueue(
                    TupleTrainMessage("s", train_size, tuple_bytes, header_bytes)
                )
            if rest:
                transport.enqueue(
                    TupleTrainMessage("s", rest, tuple_bytes, header_bytes)
                )
        stats = transport.run(duration=1e9)
        return time.perf_counter() - start, stats

    results = {}
    delivered = {}
    best_ratio = 0.0
    for _ in range(repeats):
        elapsed = {}
        for mode in ("scalar", "batch"):
            best = float("inf")
            for _inner in range(2):
                once, stats = sample(mode)
                best = min(best, once)
            elapsed[mode] = best
            results[mode] = max(results.get(mode, 0.0), n_tuples / best)
            delivered[mode] = (
                stats.delivered_tuples.get("s", 0),
                stats.delivered_bytes.get("s", 0) - stats.overhead_bytes
                if mode == "batch" else stats.delivered_bytes.get("s", 0),
            )
        best_ratio = max(best_ratio, elapsed["scalar"] / elapsed["batch"])
    scalar_tuples = delivered["scalar"][0]
    batch_tuples = delivered["batch"][0]
    return {
        "scalar_tps": round(results["scalar"]),
        "batch_tps": round(results["batch"]),
        "speedup": round(best_ratio, 3),
        "outputs_match": scalar_tuples == batch_tuples == n_tuples,
        "tuples_delivered": batch_tuples,
    }


# -- parallel backend scaling (informational) ---------------------------------


def measure_parallel_scale(n_tuples: int, train_size: int, repeats: int):
    """Wall-clock scaling of the multiprocessing backend: 1 vs 2 workers.

    The stages sleep per tuple (external-latency-bound work), so the
    pipeline overlap across processes shows up even on a single-core
    host.  Startup/handshake is excluded — the timed region is
    push..drain, the steady-state cost a long-running deployment pays.
    """
    from repro.core.tuples import StreamTuple
    from repro.parallel import ParallelSystem, blueprint

    stages = 2
    spec = blueprint(
        "repro.parallel.blueprints:sleep_pipeline", stages=stages, service_us=500.0
    )
    tuples = [StreamTuple({"v": i}, timestamp=i * 0.001) for i in range(n_tuples)]
    expected = [i + stages for i in range(n_tuples)]

    def sample(workers: int) -> tuple[float, bool]:
        with ParallelSystem(spec, n_workers=workers, train_size=train_size) as system:
            start = time.perf_counter()
            for begin in range(0, n_tuples, train_size):
                system.push("source", tuples[begin : begin + train_size])
            outputs = system.drain()
            wall = time.perf_counter() - start
            delivered = [tup.values["v"] for tup in outputs["sink"]]
        return wall, delivered == expected

    best = {1: float("inf"), 2: float("inf")}
    match = True
    for _ in range(repeats):
        for workers in (1, 2):
            wall, ok = sample(workers)
            best[workers] = min(best[workers], wall)
            match = match and ok
    return {
        "informational": True,
        "workers_1_wall_s": round(best[1], 4),
        "workers_2_wall_s": round(best[2], 4),
        "speedup": round(best[1] / best[2], 2),
        "tuples_delivered": n_tuples,
        "outputs_match": match,
    }


# -- window kernels at scale (informational) ----------------------------------


def measure_window_columnar_xl(n_tuples: int, train_size: int):
    """Columnar window-kernel throughput at scale (informational).

    Trains are built directly as struct-of-arrays (no tuple
    materialization: at a million rows the list path would dominate the
    report's memory, and the wire delivers columnar frames anyway), so
    the timed region is pure engine + kernels.  Correctness is an exact
    conservation law instead of a scalar twin — every surviving input
    value lands in exactly one emitted window, so the emitted sums must
    total the filtered input sum — which keeps the row honest without
    an hour-long per-tuple reference run.
    """
    net, _outputs = window_columnar_network()
    engine = AuroraEngine(
        net,
        train_size=train_size,
        batch_execution=True,
        fusion=True,
        scheduling_overhead=0.002,
    )
    trains = []
    for begin in range(0, n_tuples, train_size):
        idx = np.arange(begin, min(begin + train_size, n_tuples), dtype=np.int64)
        trains.append(ColumnarTrain(
            ("G", "A"),
            {"G": (idx // 8) % 7, "A": idx % 17},
            np.zeros(len(idx), dtype=np.float64),
        ))
    gc.collect()
    start = time.perf_counter()
    for train in trains:
        engine.push_train("src", train)
    engine.run_until_idle()
    engine.flush()
    elapsed = time.perf_counter() - start
    emitted_total = sum(t.values["A"] for t in engine.outputs["agg"])
    all_a = np.arange(n_tuples, dtype=np.int64) % 17
    survivors = (all_a != 0) & (all_a + 1 < 17)
    expected_total = int((2 * (all_a + 1) * survivors).sum())
    return {
        "informational": True,
        "tuples": n_tuples,
        "columnar_tps": round(n_tuples / elapsed),
        "wall_s": round(elapsed, 4),
        "windows_emitted": len(engine.outputs["agg"]),
        "outputs_match": emitted_total == expected_total,
    }


# -- suite --------------------------------------------------------------------


def run_suite(n_tuples: int = DEFAULT_TUPLES, train_size: int = DEFAULT_TRAIN,
              repeats: int = DEFAULT_REPEATS, window_xl: int = 0) -> dict:
    stream = make_workload(n_tuples)
    # A generational collection landing inside a sub-millisecond timed
    # region swings a sample by double digits; collect up front and
    # keep the collector off for the duration of the suite.
    gc.collect()
    gc.disable()
    try:
        return _run_suite(stream, n_tuples, train_size, repeats, window_xl)
    finally:
        gc.enable()


def _run_suite(stream, n_tuples: int, train_size: int, repeats: int,
               window_xl: int = 0) -> dict:
    def fresh(measure, *args, **kwargs):
        # With the collector paused, garbage from earlier scenarios
        # accumulates and drifts the later (and smallest) timed
        # regions; an explicit collection between scenarios resets the
        # heap without risking a collection inside a sample.
        gc.collect()
        return measure(*args, **kwargs)

    report = {
        "suite": "bench_perf_throughput",
        "config": {
            "tuples": n_tuples,
            "train_size": train_size,
            "repeats": repeats,
            "python": sys.version.split()[0],
        },
        "results": {
            "pipeline": fresh(
                measure_engine, pipeline_network, stream, train_size, repeats
            ),
            "fanout": fresh(
                measure_engine, fanout_network, stream, train_size, repeats
            ),
            "window": fresh(
                measure_engine, window_network, stream, train_size, repeats
            ),
            "fusion": fresh(
                measure_fusion, fusion_network, stream, train_size, repeats
            ),
            "pipeline_columnar": fresh(
                measure_columnar, pipeline_columnar_network, stream,
                train_size, repeats,
            ),
            "fusion_columnar": fresh(
                measure_columnar, fusion_columnar_network, stream,
                train_size, repeats,
            ),
            "window_columnar": fresh(
                measure_columnar, window_columnar_network,
                make_window_workload(n_tuples), train_size, repeats,
            ),
            "sched_wide": fresh(
                measure_engine, wide_sched_network, stream, train_size, repeats,
                scheduler="longest_queue",
            ),
            "transport": fresh(measure_transport, n_tuples, train_size, repeats),
            "obs_overhead": fresh(
                measure_obs_overhead, pipeline_network, stream, train_size, repeats
            ),
            "parallel_scale": fresh(
                measure_parallel_scale, n_tuples, train_size, repeats
            ),
        },
    }
    if window_xl > 0:
        report["results"]["window_columnar_xl"] = fresh(
            measure_window_columnar_xl, window_xl, train_size
        )
    return report


def print_report(report: dict, file=None) -> None:
    out = file or sys.stdout
    print(f"\nPERF: wall-clock throughput "
          f"({report['config']['tuples']} tuples, "
          f"train {report['config']['train_size']}, "
          f"best of {report['config']['repeats']})", file=out)
    print(f"  {'topology':18s} {'scalar tps':>12s} {'batch tps':>12s} "
          f"{'speedup':>8s}  outputs", file=out)
    for name, row in report["results"].items():
        if "scalar_tps" not in row:
            continue
        match = "identical" if row.get("outputs_match") else "DIVERGED"
        print(f"  {name:18s} {row['scalar_tps']:12,d} {row['batch_tps']:12,d} "
              f"{row['speedup']:7.2f}x  {match}", file=out)
    obs = report["results"].get("obs_overhead")
    if obs:
        print(f"  obs layer  {obs['disabled_tps']:12,d} (off) "
              f"{obs['enabled_tps']:,d} (on)  "
              f"{obs['ratio'] * 100:.1f}% throughput retained"
              f" ({obs.get('ratio_uncapped', obs['ratio']) * 100:.1f}% uncapped)",
              file=out)
    xl = report["results"].get("window_columnar_xl")
    if xl:
        match = "conserved" if xl.get("outputs_match") else "DIVERGED"
        print(f"  window kernels at scale  {xl['tuples']:,d} tuples  "
              f"{xl['columnar_tps']:,d} tps  {xl['windows_emitted']:,d} windows "
              f"(informational)  {match}", file=out)
    scale = report["results"].get("parallel_scale")
    if scale:
        match = "identical" if scale.get("outputs_match") else "DIVERGED"
        print(f"  parallel plane  1w {scale['workers_1_wall_s']:.3f}s  "
              f"2w {scale['workers_2_wall_s']:.3f}s  "
              f"{scale['speedup']:.2f}x scaling (informational)  {match}",
              file=out)


OBS_OVERHEAD_FLOOR = 0.95
BASELINE_TOLERANCE = 0.8
FUSION_SPEEDUP_FLOOR = 1.3
# Columnar fast-path floors: the struct-of-arrays representation with
# vectorized kernels must beat the scalar per-tuple path by a wide
# margin, not a whisker (typical runs land well above these).
COLUMNAR_SPEEDUP_FLOORS = {
    "pipeline_columnar": 5.0,
    "fusion_columnar": 4.0,
    "window_columnar": 3.0,
}


def check_report(report: dict, baseline: dict | None = None) -> list[str]:
    """The CI gate: batch must not be slower anywhere, outputs must
    match, the obs layer must cost < 5%, superbox fusion must hold its
    1.3x floor with byte-identical observability, and no scenario may
    regress more than 20% below the committed baseline speedup."""
    failures = []
    for name, row in report["results"].items():
        if not row.get("outputs_match", True):
            failures.append(f"{name}: batch outputs diverged from scalar")
        if row.get("virtual_time_match") is False:
            failures.append(f"{name}: virtual clocks diverged")
        if row.get("obs_match") is False:
            failures.append(
                f"{name}: fused obs snapshot diverged from unfused"
            )
        if row.get("informational"):
            # Recorded for the trend line (e.g. parallel_scale), not
            # floor-gated yet: correctness checks above still apply.
            continue
        if name == "fusion" and row["speedup"] < FUSION_SPEEDUP_FLOOR:
            failures.append(
                f"fusion: superbox speedup {row['speedup']:.2f}x below "
                f"the {FUSION_SPEEDUP_FLOOR}x floor"
            )
        floor = COLUMNAR_SPEEDUP_FLOORS.get(name)
        if floor is not None and row["speedup"] < floor:
            failures.append(
                f"{name}: columnar speedup {row['speedup']:.2f}x below "
                f"the {floor}x floor"
            )
        if "ratio" in row:
            if row["ratio"] < OBS_OVERHEAD_FLOOR:
                failures.append(
                    f"{name}: metrics registry costs too much "
                    f"({(1 - row['ratio']) * 100:.1f}% of batch throughput, "
                    f"limit {(1 - OBS_OVERHEAD_FLOOR) * 100:.0f}%)"
                )
            continue
        if row["speedup"] < 1.0:
            failures.append(
                f"{name}: batch path slower than scalar ({row['speedup']:.2f}x)"
            )
    if baseline is not None:
        failures += check_against_baseline(report, baseline)
    return failures


def check_against_baseline(report: dict, baseline: dict) -> list[str]:
    """Fail scenarios whose speedup regressed >20% below the baseline.

    Speedup (batch tps / scalar tps on the same host) is the one number
    here that transfers across machines, which is what makes a committed
    baseline meaningful in CI.  A baseline recorded at a different
    workload config is not comparable; warn and skip instead of failing.
    """
    current_cfg = {k: report["config"][k] for k in ("tuples", "train_size", "repeats")}
    baseline_cfg = {
        k: baseline.get("config", {}).get(k)
        for k in ("tuples", "train_size", "repeats")
    }
    if current_cfg != baseline_cfg:
        print(
            f"WARN: baseline config {baseline_cfg} != current {current_cfg}; "
            "skipping baseline comparison",
            file=sys.stderr,
        )
        return []
    failures = []
    for name, row in report["results"].items():
        if row.get("informational"):
            continue  # trend-line rows are not baseline-gated
        base_row = baseline.get("results", {}).get(name)
        if base_row is None:
            # A newly added scenario with no committed baseline must
            # fail loudly (regenerate BENCH_PERF.json), not silently
            # pass the gate.
            failures.append(
                f"{name}: scenario missing from the committed baseline — "
                f"regenerate BENCH_PERF.json to cover it"
            )
            continue
        if "speedup" not in row or "speedup" not in base_row:
            continue
        floor = base_row["speedup"] * BASELINE_TOLERANCE
        if row["speedup"] < floor:
            failures.append(
                f"{name}: speedup {row['speedup']:.2f}x regressed below "
                f"{floor:.2f}x (baseline {base_row['speedup']:.2f}x - 20%)"
            )
    return failures


# -- pytest entry (small config; correctness assertions only) -----------------


def test_perf_throughput_smoke():
    report = run_suite(n_tuples=400, train_size=50, repeats=2)
    print_report(report)
    for name, row in report["results"].items():
        assert row["outputs_match"], f"{name}: batch outputs diverged"
        if "virtual_time_match" in row:
            assert row["virtual_time_match"], f"{name}: virtual clocks diverged"
        if "obs_match" in row:
            assert row["obs_match"], f"{name}: fused obs snapshot diverged"


def test_baseline_comparison_skips_on_config_mismatch(capsys):
    report = run_suite(n_tuples=200, train_size=20, repeats=1)
    baseline = json.loads(json.dumps(report))
    baseline["config"]["tuples"] = 999
    assert check_against_baseline(report, baseline) == []
    assert "skipping baseline comparison" in capsys.readouterr().err


def test_baseline_comparison_flags_regression():
    report = run_suite(n_tuples=200, train_size=20, repeats=1)
    baseline = json.loads(json.dumps(report))
    baseline["results"]["pipeline"]["speedup"] = (
        report["results"]["pipeline"]["speedup"] * 10
    )
    failures = check_against_baseline(report, baseline)
    assert any(f.startswith("pipeline:") for f in failures)


def test_baseline_missing_scenario_fails_clearly():
    # A scenario added after the baseline was committed must produce a
    # named failure telling the operator to regenerate — not a KeyError,
    # not a silent pass.
    report = run_suite(n_tuples=200, train_size=20, repeats=1)
    baseline = json.loads(json.dumps(report))
    del baseline["results"]["window"]
    failures = check_against_baseline(report, baseline)
    assert failures == [
        "window: scenario missing from the committed baseline — "
        "regenerate BENCH_PERF.json to cover it"
    ]


def test_informational_rows_exempt_from_floors_not_correctness():
    report = {
        "config": {"tuples": 1, "train_size": 1, "repeats": 1},
        "results": {
            "parallel_scale": {
                "informational": True,
                "speedup": 0.4,  # would fail the >=1x gate if enforced
                "outputs_match": True,
            }
        },
    }
    assert check_report(report) == []
    report["results"]["parallel_scale"]["outputs_match"] = False
    assert check_report(report) == [
        "parallel_scale: batch outputs diverged from scalar"
    ]
    # Informational rows are also exempt from baseline comparison.
    assert check_against_baseline(report, {"config": report["config"],
                                           "results": {}}) == []


def test_parallel_scale_recorded_in_suite():
    report = run_suite(n_tuples=120, train_size=30, repeats=1)
    row = report["results"]["parallel_scale"]
    assert row["informational"] is True
    assert row["outputs_match"] is True
    assert row["workers_1_wall_s"] > 0 and row["workers_2_wall_s"] > 0


# -- CLI ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tuples", type=int, default=DEFAULT_TUPLES)
    parser.add_argument("--train", type=int, default=DEFAULT_TRAIN)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--out", default="BENCH_PERF.json")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero if the batch path is slower "
                             "than scalar, outputs diverge, or the obs "
                             "layer costs more than 5%")
    parser.add_argument("--baseline", default=None,
                        help="committed BENCH_PERF.json to compare "
                             "speedups against under --check")
    parser.add_argument("--window-xl", type=int, default=0, metavar="N",
                        help="also record the informational "
                             "window_columnar_xl row over N tuples "
                             "(nightly runs a million)")
    args = parser.parse_args(argv)

    baseline = None
    if args.baseline:
        with open(args.baseline) as handle:
            baseline = json.load(handle)

    report = run_suite(args.tuples, args.train, args.repeats,
                       window_xl=args.window_xl)
    print_report(report)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {args.out}")

    if args.check:
        failures = check_report(report, baseline)
        if failures:
            # Repeat the per-scenario ratio table on stderr so a CI
            # gate failure carries its own context in the failure log.
            print_report(report, file=sys.stderr)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
