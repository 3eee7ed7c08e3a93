"""The batched engine ≡ the per-tuple schedule replay.

The engine dequeues whole trains, charges storage and accounting once
per run, and emits whole lists — but the observable semantics must
match :func:`repro.reference.replay` of its own decision log, which
re-runs the same schedule one tuple at a time: same output values,
timestamps, and order; identical virtual clock (exact float equality —
the batched accounting accumulates the same chain of additions); same
step count; same per-box counters; same spill accounting.

One documented deviation (see docs/architecture.md): a train's
emissions are stamped with the train-end clock when enqueued
downstream, so *intra-train* queue-time and QoS-latency breakdowns may
differ; totals and outputs do not.  These tests therefore do not
compare per-arc queue_times or latency sums.
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
from repro.reference import box_stats, replay

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


def run_engine(build, streams, *, train_size, scheduler="round_robin",
               storage=None):
    engine = AuroraEngine(
        build(),
        scheduler=make_scheduler(scheduler),
        train_size=train_size,
        scheduling_overhead=0.003,
        storage=storage,
    )
    engine.decision_log = []
    for name, stream in streams.items():
        engine.push_many(name, stream)
    engine.run_until_idle()
    engine.flush()
    return engine


def observable(result, boxes):
    """What an engine and a replay must agree on; ``boxes`` are the
    per-box stats (:func:`box_stats` of an engine's network)."""
    return {
        "outputs": {
            name: [(t.values, t.timestamp) for t in tuples]
            for name, tuples in result.outputs.items()
        },
        "clock": result.clock,
        "steps": result.steps,
        "boxes": {
            box_id: (stats.tuples_in, stats.tuples_out)
            for box_id, stats in boxes.items()
        },
    }


def assert_equivalent(build, streams, *, train_size, scheduler="round_robin",
                      storage_factory=None, context=""):
    batch = run_engine(
        build, streams, train_size=train_size, scheduler=scheduler,
        storage=storage_factory() if storage_factory else None,
    )
    reference = replay(build(), batch.decision_log)
    assert observable(batch, box_stats(batch.network)) == observable(
        reference, reference.boxes
    ), (
        f"batched engine and replay diverged ({context})"
    )
    return reference.storage, batch


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
            replayed, batch = assert_equivalent(
                pipeline_network, streams, train_size=13,
                storage_factory=lambda: StorageManager(memory_budget=20),
                context=f"spill, run={run}",
            )
            assert replayed.tuples_unspilled == batch.storage.tuples_unspilled
            assert replayed.io_time == batch.storage.io_time

    def test_incremental_pushes_between_runs(self):
        """Work arriving in waves (run_until_idle between pushes)."""
        rng = random.Random(SEED + 4)
        engine = AuroraEngine(
            fanout_union_network(), train_size=9, scheduling_overhead=0.003
        )
        engine.decision_log = []
        for _wave in range(5):
            engine.push_many("src", random_workload(rng, n=20))
            engine.run_until_idle()
        engine.flush()
        reference = replay(fanout_union_network(), engine.decision_log)
        assert observable(engine, box_stats(engine.network)) == observable(
            reference, reference.boxes
        )
