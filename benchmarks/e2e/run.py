"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

``--trace 0`` times fixed-size repeats of the workload until ``S``
seconds of timed region have accumulated (at least ``MIN_REPEATS``) and
reports the end-to-end metrics of ``BENCHMARK.json`` as medians over the
repeats.  ``--trace 1`` times untraced repeats for half of ``S``, then
runs one repeat with ``trace.Recorder`` installed and reports the
per-layer metrics; end-to-end numbers never come from a traced repeat.

Every repeat builds its system afresh (that is ``setup_s``), and every
invocation ends with the workload's correctness gate.  The last line of
standard output is the result object the benchmark contract asks for;
per-repeat samples (calibrated and raw) and digests go to
``.benchmarks/e2e/<mode>-<workload>.json`` in the working directory.

**Calibrated seconds.**  The sandbox this runs in is a small shared VM
whose speed swings by a quarter over seconds to minutes: the same pure
Python loop takes 58-93 ms within one minute of a bad spell.  So every timed interval
is bracketed by ``probe()``, a fixed computation that touches nothing of
the program, and the interval is reported in *calibrated* seconds: wall
seconds divided by how much slower than ``NOMINAL_PROBE_S`` the two
bracketing probes ran.  ``throughput_tps`` and ``setup_s`` are in
calibrated seconds; the raw wall-clock samples sit beside them in the
detail file.  A change to the program moves both alike, a slow minute
on the host moves only the raw one.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

# One BLAS/OpenMP thread: the engine is single-threaded and the two
# cores belong to the parallel plane's workers.  Must precede numpy.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parents[2]
MIN_REPEATS = 3
OUT_DIR = Path(".benchmarks/e2e")
NOMINAL_PROBE_S = 0.065  # probe() on the 2-core sandbox when its host is quiet

# What a layer's summed work measure and its call count are called.
WORK_NAMES = {
    "workloads.generators": "tuples",
    "core.columnar.encode": "rows",
    "core.columnar.decode": "rows",
    "app.consume": "tuples",
    "core.engine.ingest": "tuples",
    "core.operators.row": "tuples_in",
    "core.operators.columnar": "tuples_in",
    "network.framing": "bytes",
}
CALL_NAMES = {"network.overlay": "messages", "network.framing": "frames"}
SELF_NAMES = {"parallel.coordinator.drain": "wait_s"}  # its self time is waiting on queues
# Counters the program keeps itself, read by Workload.layer_counts().
COUNT_NAMES = (
    "workloads.scenarios.probes", "obs.trace.spans", "obs.registry.series",
    "core.shedder.dropped", "sim.simulator.events", "network.overlay.bytes",
    "distributed.node.trains", "distributed.node.tuples", "parallel.worker.frames_out",
    "parallel.worker.bytes_out", "parallel.worker.processed",
    "parallel.coordinator.burst_roundtrip_p50_ms",
)


def probe() -> float:
    """Wall seconds of a fixed interpreter-bound computation: arithmetic,
    dict stores and small-object allocation, like the program's hot loops."""
    started = time.perf_counter()
    for _ in range(8):
        total, table, pairs = 0, {}, []
        for i in range(40_000):
            total += i * i
            table[i & 1023] = total
            pairs.append((i, total))
    return time.perf_counter() - started


def calibrated(wall_s: float, probe_before: float, probe_after: float) -> float:
    """``wall_s`` in calibrated seconds (see the module docstring)."""
    return wall_s * NOMINAL_PROBE_S / ((probe_before + probe_after) / 2)


class Repeat:
    """One fresh set-up and one timed run of a workload."""

    def __init__(self, workload_cls, seed: int, smoke: bool, probe_before: float, recorder=None):
        gc.collect()
        started = time.perf_counter()
        self.workload = workload_cls(seed, smoke)
        self.workload.setup()
        self.setup_wall_s = time.perf_counter() - started
        # Inputs and the built system survive the run: keep the collector
        # from re-scanning them inside the timed region.
        gc.collect()
        gc.freeze()
        probe_between = probe()
        cpu_started = time.process_time()
        if recorder is None:
            started = time.perf_counter()
            self.stats = self.workload.run()
            self.wall_s = time.perf_counter() - started
        else:
            recorder.begin()
            self.stats = self.workload.run()
            self.wall_s = recorder.end()
        self.cpu_s = time.process_time() - cpu_started
        self.probe_after = probe()
        gc.unfreeze()
        self.probes = (probe_before, probe_between, self.probe_after)
        self.setup_s = calibrated(self.setup_wall_s, probe_before, probe_between)
        self.run_s = calibrated(self.wall_s, probe_between, self.probe_after)

    def release(self) -> None:
        """Stop the workload's processes and let go of its inputs and
        outputs (only the last repeat's are kept, for the correctness gate)."""
        self.workload.close()
        self.workload = None


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest reaped child
    (a parallel-plane worker), in MiB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def layer_metrics(recorder, layers: list[str], traced: Repeat,
                  untraced_run_s: float) -> dict[str, float]:
    """Every per-layer metric this harness can produce, by name."""
    from repro.workloads.slo import percentile

    metrics: dict[str, float] = {}
    for layer in layers:
        metrics[f"{layer}.{SELF_NAMES.get(layer, 'self_s')}"] = recorder.self_s.get(layer, 0.0)
        metrics[f"{layer}.{CALL_NAMES.get(layer, 'calls')}"] = recorder.calls.get(layer, 0)
        if layer in WORK_NAMES:
            metrics[f"{layer}.{WORK_NAMES[layer]}"] = recorder.work.get(layer, 0)
    counts = traced.workload.layer_counts()
    for name in COUNT_NAMES:
        metrics[name] = counts.get(name, 0)
    row_in = metrics["core.operators.row.tuples_in"]
    col_in = metrics["core.operators.columnar.tuples_in"]
    metrics["core.operators.columnar.columnar_share"] = (
        col_in / (row_in + col_in) if row_in + col_in else 0.0)
    service = recorder.train_service_s
    for pct in (50, 99):
        metrics[f"core.engine.step.train_service_p{pct}_ms"] = (
            1e3 * percentile(service, pct) if service else 0.0)
    metrics["model_latency_p99_s"] = traced.workload.model_latency_p99_s()
    metrics["harness.traced_wall_s"] = traced.wall_s
    metrics["harness.cpu_s"] = traced.cpu_s
    metrics["harness.trace_overhead_ratio"] = traced.run_s / untraced_run_s
    metrics["harness.unattributed_frac"] = (
        recorder.self_s["harness.unattributed"] / traced.wall_s)
    return metrics


def stop_children() -> None:
    """Leave no process behind: kill and reap any worker still alive, then
    stop and reap multiprocessing's resource tracker.  The spawn context
    starts the tracker with the first worker and never waits for it, so
    it would outlive this process, re-parented and unreaped."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():  # joins the finished ones
        child.kill()
        child.join()
    tracker = resource_tracker._resource_tracker
    if tracker._pid is not None:
        tracker._stop()  # closes its pipe (end of file makes it exit) and waits for it


def main(argv: list[str] | None = None) -> int:
    try:
        return measure(argv)
    finally:
        stop_children()


def measure(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-region budget (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="sizes divided by 50")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    # Imports are part of what a user waits for before the first tuple.
    last_probe = probe()
    started = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.e2e import trace
    from benchmarks.e2e.workloads import WORKLOADS
    import_wall_s = time.perf_counter() - started
    probe_before, last_probe = last_probe, probe()
    import_s = calibrated(import_wall_s, probe_before, last_probe)

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload_cls = WORKLOADS[args.workload]

    budget, min_repeats = (seconds / 2, 2) if args.trace else (seconds, MIN_REPEATS)
    repeats: list[Repeat] = []
    while sum(r.wall_s for r in repeats) < budget or len(repeats) < min_repeats:
        if repeats:
            repeats[-1].release()
        repeats.append(Repeat(workload_cls, args.seed, args.smoke, last_probe))
        last_probe = repeats[-1].probe_after
    rss = peak_rss_mb()

    detail: dict = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
                    "repeats": len(repeats), "tuples_per_repeat": repeats[0].stats.offered}
    if args.trace:
        recorder = trace.Recorder()
        recorder.install()
        try:
            traced = Repeat(workload_cls, args.seed, args.smoke, last_probe, recorder)
            produced = layer_metrics(recorder, trace.LAYERS, traced,
                                     statistics.median(r.run_s for r in repeats))
        finally:
            recorder.uninstall()
        repeats[-1].release()
        repeats.append(traced)
        unknown = [m["name"] for m in spec["per_layer"] if m["name"] not in produced]
        if unknown:
            raise SystemExit(f"BENCHMARK.json lists per-layer metrics nobody measures: {unknown}")
        metrics = {m["name"]: {"value": produced[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        detail.update(spans_recorded=recorder.span_count, spans=recorder.spans)
    else:
        samples = {
            "throughput_tps": [r.stats.offered / r.run_s for r in repeats],
            "peak_rss_mb": [rss],
            "setup_s": [import_s + r.setup_s for r in repeats],
        }
        metrics = {m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        detail.update(samples=samples, raw={
            "throughput_tps": [r.stats.offered / r.wall_s for r in repeats],
            "setup_s": [import_wall_s + r.setup_wall_s for r in repeats],
            "probe_s": [r.probes for r in repeats],
        })

    workload = repeats[-1].workload
    workload.close()
    problems = [p for r in repeats for p in r.stats.problems] + workload.check()
    lost = sum(r.stats.lost for r in repeats) + workload.lost_vs_reference
    result = {
        "correct": not problems and lost == 0,
        "attempted": sum(r.stats.offered for r in repeats),
        "failed": max(lost, 0),
        "metrics": metrics,
    }
    detail.update(result=result, problems=problems,
                  input_digest=workload.input_digest, output_digest=workload.output_digest)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    mode = "trace" if args.trace else "e2e"
    (OUT_DIR / f"{mode}-{args.workload}.json").write_text(json.dumps(detail, indent=1))

    for name, entry in metrics.items():
        print(f"{name:48s} {entry['value']:>16.6g} {entry['unit']}")
    for problem in problems:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    # The result line is the verdict: a run that got this far exits 0
    # whether or not it was correct (``python -m benchmarks.e2e`` is the
    # command that fails on an incorrect workload).
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
