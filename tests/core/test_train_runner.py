"""The engine's one train runner at the edges nothing else reaches.

* Pass-through streams (``in:x -> out:y`` with no box in between) are
  delivered by every ingest method, exactly as ``execute()`` delivers
  them.
* The columnar spill barrier: a columnar claim that would read spilled
  tuples materializes and re-claims as rows, so the spill-read charges
  interleave into the clock chain exactly as the per-tuple schedule
  replay (:func:`repro.reference.replay`) charges them — fused or not.
"""

import pytest

from repro.core.columnar import ColumnarTrain, OutputBuffer, col
from repro.core.engine import AuroraEngine
from repro.core.operators.filter import Filter
from repro.core.operators.map import columnar_map
from repro.core.query import QueryNetwork, execute
from repro.core.storage import StorageManager
from repro.core.tuples import make_stream
from repro.obs.export import dumps, snapshot
from repro.reference import replay


def passthrough_net():
    """in:src feeds a box *and* an output; in:raw is a pure pass-through."""
    net = QueryNetwork()
    net.add_box("f", Filter(col("A") % 2 == 0))
    net.connect("in:src", "f")
    net.connect("f", "out:even")
    net.connect("in:src", "out:tap")
    net.connect("in:raw", "out:copy")
    return net


def rows(n, offset=0):
    return make_stream([{"A": i + offset} for i in range(n)], spacing=0.01)


def delivered(outputs):
    return {
        name: [(t.values, t.timestamp) for t in tuples]
        for name, tuples in outputs.items()
    }


INGEST = {
    "push": lambda engine, name, tuples: [engine.push(name, t) for t in tuples],
    "push_many": lambda engine, name, tuples: engine.push_many(name, tuples),
    "push_train": lambda engine, name, tuples: engine.push_train(
        name, ColumnarTrain.from_tuples(tuples)
    ),
}


class TestPassThrough:
    @pytest.mark.parametrize("batch_execution", [True, False])
    @pytest.mark.parametrize("method", sorted(INGEST))
    def test_every_ingest_method_agrees_with_execute(self, method, batch_execution):
        expected = delivered(
            execute(passthrough_net(), {"src": rows(9), "raw": rows(5, offset=100)})
        )
        assert len(expected["tap"]) == 9 and len(expected["copy"]) == 5

        engine = AuroraEngine(passthrough_net(), batch_execution=batch_execution)
        INGEST[method](engine, "src", rows(9))
        INGEST[method](engine, "raw", rows(5, offset=100))
        engine.run_until_idle()
        engine.flush()

        assert delivered(engine.outputs) == expected
        assert engine.network.total_queued() == 0
        for name, tuples in expected.items():
            counter = engine.metrics.counter("engine.delivered.tuples", stream=name)
            assert counter.value == len(tuples)
            assert engine.qos_monitor.delivered[name] == len(tuples)
            assert len(engine.qos_monitor.latencies[name]) == len(tuples)

    def test_columnar_engine_keeps_lazy_buffers(self):
        engine = AuroraEngine(passthrough_net())
        engine.push_train("raw", ColumnarTrain.from_tuples(rows(5)))
        assert isinstance(engine.outputs["copy"], OutputBuffer)
        assert [t["A"] for t in engine.outputs["copy"]] == [0, 1, 2, 3, 4]


def spill_chains():
    """Two copies of in -> f0 -> m -> f1 -> out, every stage compiled.
    Two backlogs compete for the memory budget, so the longer one is
    spilled down to (almost) nothing in memory."""
    net = QueryNetwork()
    for side in ("x", "y"):
        net.add_box(f"{side}f0", Filter(col("A") % 5 != 0, cost_per_tuple=0.002))
        net.add_box(f"{side}m", columnar_map({"A": col("A") + 1}, cost_per_tuple=0.001))
        net.add_box(f"{side}f1", Filter(col("A") % 3 != 0, cost_per_tuple=0.003))
        net.connect(f"in:{side}", f"{side}f0")
        net.connect(f"{side}f0", f"{side}m")
        net.connect(f"{side}m", f"{side}f1")
        net.connect(f"{side}f1", f"out:{side}")
    return net


def run_spilling(ingest, storage, fusion):
    """Push trains faster than they are stepped against a 20-tuple
    memory budget, so claims of 7 run into the spilled tail — and later
    trains land behind rows the barrier materialized (mixed queues)."""
    net = spill_chains()
    engine = AuroraEngine(net, train_size=7, storage=storage, fusion=fusion)
    engine.decision_log = []
    for burst in range(8):
        ingest(engine, "x", rows(12, offset=12 * burst))
        ingest(engine, "y", rows(12, offset=12 * burst))
        engine.step()
        engine.step()
    engine.run_until_idle()
    engine.flush()
    shared = {
        "outputs": delivered(engine.outputs),
        "clock": engine.clock,
        "steps": engine.steps,
        "tuples_unspilled": storage.tuples_unspilled,
        "io_time": storage.io_time,
        "snapshot": dumps(snapshot(engine.metrics)),
    }
    stats = {
        box_id: (box.tuples_in, box.tuples_out, box.busy_time,
                 box.latency_sum, box.latency_count)
        for box_id, box in net.boxes.items()
    }
    return shared, stats, engine.decision_log


def replayed(log):
    """:func:`run_spilling`'s shared axes, from the replay of its log."""
    reference = replay(spill_chains(), log)
    return {
        "outputs": delivered(reference.outputs),
        "clock": reference.clock,
        "steps": reference.steps,
        "tuples_unspilled": reference.storage.tuples_unspilled,
        "io_time": reference.storage.io_time,
    }


class TestColumnarSpillBarrier:
    def check(self, make_storage):
        for fusion in (True, False):
            as_rows = run_spilling(INGEST["push_many"], make_storage(), fusion)
            as_trains = run_spilling(INGEST["push_train"], make_storage(), fusion)
            # The encoding is invisible on every axis, per-box stats and
            # obs snapshot included ...
            assert as_trains[:2] == as_rows[:2], fusion
            # ... and each is the per-tuple replay of its own schedule
            # (whose per-box latency stamping is legitimately finer).
            for shared, _stats, log in (as_rows, as_trains):
                reference = replayed(log)
                assert reference["tuples_unspilled"] > 0
                assert {key: shared[key] for key in reference} == reference, fusion

    def test_trains_rows_and_reference_agree_under_spill(self):
        # Power-of-two I/O costs keep the storage.io_time gauge exact
        # under any association of its sum, so this pins the barrier
        # itself: claim sizes, clock chain, spill reads.
        self.check(
            lambda: StorageManager(
                memory_budget=20, write_cost=2.0**-13, read_cost=2.0**-13
            )
        )

    def test_io_time_gauge_is_exact_at_default_costs(self):
        """A batch's spilled reads are charged read by read, so even the
        io_time float matches the replay's read-by-read charges."""
        self.check(lambda: StorageManager(memory_budget=20))
