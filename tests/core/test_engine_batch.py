"""Engine batch execution ≡ scalar execution.

``AuroraEngine(batch_execution=True)`` dequeues whole trains, charges
storage and accounting once per run, and emits whole lists — but the
observable semantics must match the per-tuple path exactly: same
output values, timestamps, and order; identical virtual clock (exact
float equality — the batched accounting accumulates the same chain of
additions); same step and tuple counts; same per-box counters; same
spill accounting.

One documented deviation (see docs/architecture.md): a train's
emissions are stamped with the train-end clock when enqueued
downstream, so *intra-train* queue-time and QoS-latency breakdowns may
differ; totals and outputs do not.  These tests therefore do not
compare per-arc queue_times.
"""

import random

from repro.core.engine import AuroraEngine
from repro.core.operators.filter import Filter
from repro.core.operators.join import equijoin
from repro.core.operators.map import Map
from repro.core.operators.tumble import Tumble
from repro.core.operators.union import Union
from repro.core.query import QueryNetwork
from repro.core.scheduler import make_scheduler
from repro.core.storage import StorageManager
from repro.core.tuples import make_stream

SEED = 0xE2B47C
N_RUNS = 12


def pipeline_network():
    net = QueryNetwork()
    net.add_box("f", Filter(lambda t: t["A"] % 2 == 0, cost_per_tuple=0.001))
    net.add_box("m", Map(lambda v: {"A": v["A"] + 1}, cost_per_tuple=0.001))
    net.connect("in:src", "f")
    net.connect("f", "m")
    net.connect("m", "out:sink")
    return net


def fanout_union_network():
    """Two filters feeding a Union: exercises multi-arc claim runs."""
    net = QueryNetwork()
    net.add_box("low", Filter(lambda t: t["A"] < 3, cost_per_tuple=0.001))
    net.add_box("high", Filter(lambda t: t["A"] >= 3, cost_per_tuple=0.002))
    net.add_box("u", Union(2, cost_per_tuple=0.0005))
    net.connect("in:src", "low")
    net.connect("in:src", "high")
    net.connect("low", ("u", 0))
    net.connect("high", ("u", 1))
    net.connect("u", "out:merged")
    return net


def windowed_join_network():
    """Stateful boxes downstream of a fan-out."""
    net = QueryNetwork()
    net.add_box("t", Tumble("sum", groupby=("A",), value_attr="B",
                            cost_per_tuple=0.002))
    net.add_box("j", equijoin("A", window=5, cost_per_tuple=0.002))
    net.connect("in:left", ("j", 0))
    net.connect("in:right", ("j", 1))
    net.connect("in:left", "t")
    net.connect("t", "out:agg")
    net.connect("j", "out:joined")
    return net


def run_engine(build, streams, *, batch, train_size, scheduler="round_robin",
               storage=None):
    engine = AuroraEngine(
        build(),
        scheduler=make_scheduler(scheduler),
        train_size=train_size,
        batch_execution=batch,
        scheduling_overhead=0.003,
        storage=storage,
    )
    for name, stream in streams.items():
        engine.push_many(name, stream)
    engine.run_until_idle()
    engine.flush()
    return engine


def observable(engine):
    return {
        "outputs": {
            name: [(t.values, t.timestamp) for t in tuples]
            for name, tuples in engine.outputs.items()
        },
        "clock": engine.clock,
        "steps": engine.steps,
        "tuples_processed": engine.tuples_processed,
        "boxes": {
            box_id: (box.tuples_in, box.tuples_out)
            for box_id, box in engine.network.boxes.items()
        },
    }


def assert_equivalent(build, streams, *, train_size, scheduler="round_robin",
                      storage_factory=None, context=""):
    scalar = run_engine(
        build, streams, batch=False, train_size=train_size,
        scheduler=scheduler,
        storage=storage_factory() if storage_factory else None,
    )
    batch = run_engine(
        build, streams, batch=True, train_size=train_size,
        scheduler=scheduler,
        storage=storage_factory() if storage_factory else None,
    )
    assert observable(scalar) == observable(batch), (
        f"batch/scalar engines diverged ({context})"
    )
    return scalar, batch


def random_workload(rng, n=None):
    rows = [
        {"A": rng.randint(0, 5), "B": rng.randint(0, 9)}
        for _ in range(n if n is not None else rng.randint(1, 80))
    ]
    return make_stream(rows, spacing=rng.choice([0.0, 0.01]))


class TestEngineBatchEqualsScalar:
    def test_pipeline_across_train_sizes(self):
        rng = random.Random(SEED)
        for train_size in (1, 3, 10, 37, 200):
            streams = {"src": random_workload(rng, n=60)}
            assert_equivalent(
                pipeline_network, streams, train_size=train_size,
                context=f"pipeline, train={train_size}",
            )

    def test_fanout_union_across_schedulers(self):
        rng = random.Random(SEED + 1)
        for scheduler in ("round_robin", "longest_queue", "qos"):
            for run in range(N_RUNS // 3):
                streams = {"src": random_workload(rng)}
                assert_equivalent(
                    fanout_union_network, streams, train_size=10,
                    scheduler=scheduler,
                    context=f"fanout, scheduler={scheduler}, run={run}",
                )

    def test_windowed_join_multi_input(self):
        rng = random.Random(SEED + 2)
        for run in range(N_RUNS):
            streams = {
                "left": random_workload(rng),
                "right": random_workload(rng),
            }
            assert_equivalent(
                windowed_join_network, streams, train_size=7,
                context=f"windowed join, run={run}",
            )

    def test_spill_accounting_matches(self):
        """Tight memory budget: the batched storage charge unspills the
        same tuples at the same cost as per-tuple charges."""
        rng = random.Random(SEED + 3)
        for run in range(6):
            streams = {"src": random_workload(rng, n=70)}
            scalar, batch = assert_equivalent(
                pipeline_network, streams, train_size=13,
                storage_factory=lambda: StorageManager(memory_budget=20),
                context=f"spill, run={run}",
            )
            assert scalar.storage.tuples_unspilled == batch.storage.tuples_unspilled
            assert scalar.storage.io_time == batch.storage.io_time

    def test_incremental_pushes_between_runs(self):
        """Work arriving in waves (run_until_idle between pushes)."""
        rng = random.Random(SEED + 4)
        engines = {
            mode: AuroraEngine(
                fanout_union_network(), train_size=9,
                batch_execution=(mode == "batch"), scheduling_overhead=0.003,
            )
            for mode in ("scalar", "batch")
        }
        for _wave in range(5):
            wave = random_workload(rng, n=20)
            for engine in engines.values():
                engine.push_many("src", wave)
                engine.run_until_idle()
        for engine in engines.values():
            engine.flush()
        assert observable(engines["scalar"]) == observable(engines["batch"])
