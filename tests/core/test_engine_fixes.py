"""Regression tests for engine fixes that ride with superbox fusion.

Covers: flush() emissions landing downstream as one train when
batch_execution is on (and tuple by tuple when it is off); invalidate_caches() pruning output buffers for
removed output streams and re-clamping the round-robin cursor; and the
engine's sparse queued-count index staying consistent with a full scan
of the network (the structure LongestQueue/QoS scheduling now reads).
"""

import random
from collections import deque

from repro.core.engine import AuroraEngine
from repro.core.operators.filter import Filter
from repro.core.operators.map import Map
from repro.core.operators.tumble import Tumble
from repro.core.query import QueryNetwork
from repro.core.scheduler import (
    LongestQueueScheduler,
    QoSScheduler,
    RoundRobinScheduler,
)
from repro.core.tuples import make_stream
from repro.reference import replay


def tumble_net():
    """in:src -> t(count windows of A) -> m -> out:sink."""
    net = QueryNetwork()
    net.add_box("t", Tumble("cnt", groupby=("G",), value_attr="A", mode="count", window_size=100))
    net.add_box("m", Map(lambda v: dict(v)))
    net.connect("in:src", "t")
    net.connect("t", "m")
    net.connect("m", "out:sink")
    return net


class RecordingDeque(deque):
    """A queue that remembers every batch handed to it."""

    def __init__(self):
        super().__init__()
        self.batches = []

    def append(self, item):
        self.batches.append([item])
        super().append(item)

    def extend(self, items):
        items = list(items)
        self.batches.append(items)
        super().extend(items)


class TestFlushBatchPath:
    def flushed(self, batch_execution):
        """Three open windows (one per group) that only flush() closes,
        with the t -> m arc recording what is enqueued on it."""
        net = tumble_net()
        arc = net.boxes["m"].input_arcs[0]
        arc.queue, arc.queue_times = RecordingDeque(), RecordingDeque()
        engine = AuroraEngine(net, batch_execution=batch_execution)
        engine.push_many("src", make_stream([{"G": i % 3, "A": i} for i in range(6)]))
        engine.run_until_idle()
        assert not engine.outputs["sink"]
        assert not arc.queue.batches
        engine.flush()
        assert sorted(t["result"] for t in engine.outputs["sink"]) == [2, 2, 2]
        return engine, arc

    def test_flush_emissions_land_downstream_as_one_train(self):
        engine, arc = self.flushed(batch_execution=True)
        # One hand-off of the whole flush, stamped with one clock ...
        assert [len(batch) for batch in arc.queue.batches] == [3]
        (stamps,) = arc.queue_times.batches
        assert len(stamps) == 3 and len(set(stamps)) == 1
        # ... and consumed downstream as one train: t's 6, then m's 3.
        trains = engine.metrics.histogram("engine.train.tuples")
        assert (trains.count, trains.sum) == (2, 9.0)

    def test_flush_emissions_enqueue_one_by_one_when_batch_off(self):
        _engine, arc = self.flushed(batch_execution=False)
        assert [len(batch) for batch in arc.queue.batches] == [1, 1, 1]
        assert [len(batch) for batch in arc.queue_times.batches] == [1, 1, 1]

    def test_flush_results_identical_across_modes(self):
        """The batched flush delivers what the per-tuple replay of its
        own schedule delivers."""
        engine = AuroraEngine(tumble_net())
        engine.decision_log = []
        engine.push_many("src", make_stream([{"G": 0, "A": i} for i in range(7)]))
        engine.run_until_idle()
        engine.flush()
        reference = replay(tumble_net(), engine.decision_log)
        assert [t.values for t in engine.outputs["sink"]] == [
            t.values for t in reference.outputs["sink"]
        ]


class TestFlushBox:
    @staticmethod
    def two_windows_net():
        """in:src -> f -> m -> t1(count 4) -> t2(count 3) -> out:sink:
        a fusable run feeding two windowed boxes in series, so t1's
        flushed windows must flow through t2 before t2 is flushed."""
        net = QueryNetwork()
        net.add_box("f", Filter(lambda t: t["A"] % 7 != 0))
        net.add_box("m", Map(lambda v: {"G": v["G"], "A": v["A"] + 1}))
        net.add_box("t1", Tumble("sum", groupby=("G",), value_attr="A", mode="count", window_size=4))
        net.add_box("t2", Tumble("max", groupby=("G",), value_attr="result", mode="count", window_size=3))
        net.connect("in:src", "f")
        net.connect("f", "m")
        net.connect("m", "t1")
        net.connect("t1", "t2")
        net.connect("t2", "out:sink")
        return net

    def test_per_box_flush_in_topological_order_equals_flush(self):
        stream = [{"G": i % 3, "A": i} for i in range(50)]
        for batch in (True, False):
            delivered = {}
            for per_box in (False, True):
                engine = AuroraEngine(self.two_windows_net(), batch_execution=batch)
                engine.push_many("src", make_stream(stream))
                engine.run_until_idle()
                before = len(engine.outputs["sink"])
                if per_box:
                    for box_id in engine.network.topological_order():
                        engine.flush_box(box_id)
                else:
                    engine.flush()
                assert len(engine.outputs["sink"]) > before
                assert engine.network.total_queued() == 0
                delivered[per_box] = [
                    (t.timestamp, t.values) for t in engine.outputs["sink"]
                ]
            assert delivered[True] == delivered[False]


class TestInvalidateCaches:
    def test_removed_output_stream_is_pruned(self):
        net = QueryNetwork()
        net.add_box("f", Filter(lambda t: True))
        net.add_box("g", Filter(lambda t: True))
        net.connect("in:src", "f")
        net.connect("f", "g")
        net.connect("g", "out:keep")
        net.connect("g", "out:drop", arc_id="g_drop")
        engine = AuroraEngine(net)
        engine.push_many("src", make_stream([{"A": 1}]))
        engine.run_until_idle()
        assert set(engine.outputs) == {"keep", "drop"}
        # A rewrite deletes the second output stream.
        arc = net.arcs["g_drop"]
        net.boxes["g"].output_arcs[0].remove(arc)
        del net.arcs["g_drop"]
        del net.outputs["drop"]
        engine.invalidate_caches()
        assert set(engine.outputs) == {"keep"}
        # Surviving buffers keep their delivered tuples.
        assert len(engine.outputs["keep"]) == 1

    def test_round_robin_cursor_clamped_on_shrink(self):
        net = QueryNetwork()
        for i in range(4):
            net.add_box(f"b{i}", Filter(lambda t: True))
            net.connect(f"in:s{i}", f"b{i}")
            net.connect(f"b{i}", f"out:o{i}")
        scheduler = RoundRobinScheduler()
        engine = AuroraEngine(net, scheduler=scheduler, push_trains=False)
        scheduler._cursor = 3
        # Remove the last box; the cursor would point past the end.
        del net.boxes["b3"]
        del net.inputs["s3"]
        del net.outputs["o3"]
        net.arcs = {k: a for k, a in net.arcs.items() if "b3" not in (a.source[0], a.target[0])}
        engine.invalidate_caches()
        assert scheduler._cursor == 0
        engine.push_many("s0", make_stream([{"A": 1}]))
        assert scheduler.choose(engine) == "b0"


def reference_counts(network):
    return {
        box_id: box.queued()
        for box_id, box in network.boxes.items()
        if box.queued() > 0
    }


class TestQueuedIndex:
    def test_index_matches_scan_through_random_run(self):
        rng = random.Random(7)
        net = QueryNetwork()
        net.add_box("f", Filter(lambda t: t["A"] % 2 == 0))
        net.add_box("m", Map(lambda v: {"G": v["G"], "A": v["A"] + 1}))
        net.add_box("t", Tumble("cnt", groupby=("G",), value_attr="A", mode="count", window_size=3))
        net.connect("in:src", "f")
        net.connect("f", "m")
        net.connect("m", "t")
        net.connect("t", "out:sink")
        engine = AuroraEngine(net, train_size=4, push_trains=False)
        for _ in range(200):
            if rng.random() < 0.5:
                n = rng.randint(1, 5)
                engine.push_many("src", make_stream([{"G": 0, "A": rng.randint(0, 9)} for _ in range(n)]))
            else:
                engine.step()
            assert engine.queued_counts == reference_counts(net)
        # The index never holds zero/negative entries.
        assert all(v > 0 for v in engine.queued_counts.values())

    def test_longest_queue_choice_matches_reference_scan(self):
        rng = random.Random(11)
        net = QueryNetwork()
        for i in range(6):
            net.add_box(f"b{i}", Filter(lambda t: True))
            net.connect(f"in:s{i}", f"b{i}")
            net.connect(f"b{i}", f"out:o{i}")
        engine = AuroraEngine(net, push_trains=False)
        scheduler = LongestQueueScheduler()
        for _ in range(100):
            i = rng.randint(0, 5)
            engine.push_many(f"s{i}", make_stream([{"A": 1}] * rng.randint(1, 3)))
            # Reference: first strictly-greater scan over topo order.
            best, best_q = None, 0
            for box_id in engine.box_order:
                q = net.boxes[box_id].queued()
                if q > best_q:
                    best, best_q = box_id, q
            assert scheduler.choose(engine) == best
        # QoS choice also lands on a non-empty box deterministically.
        qos = QoSScheduler()
        choice = qos.choose(engine)
        assert choice is not None and net.boxes[choice].queued() > 0
        assert qos.choose(engine) == choice


class TestRemovalInvalidation:
    """A rewrite that REMOVES boxes (an elastic merge) must leave the
    sparse index and the per-box metric handle caches consistent."""

    def elastic_cycle(self):
        """Split E behind a router, queue tuples everywhere, merge back."""
        from repro.core.elasticity import (
            ElasticityController,
            ElasticityPolicy,
            EnginePlane,
        )
        from repro.core.tuples import StreamTuple

        net = QueryNetwork()
        net.add_box("E", Map(lambda v: dict(v)))
        net.connect("in:src", "E")
        net.connect("E", "out:sink")
        engine = AuroraEngine(net, load_window=0.05)
        policy = ElasticityPolicy(high_water=0.5, low_water=0.2, cooldown=0.0)
        controller = ElasticityController(
            EnginePlane(engine), policy, metrics=engine.metrics
        )
        controller.watch("E", ("k",))
        group = controller.groups["E"]
        controller.plane.split(group, controller)
        for i in range(25):
            engine.push("src", StreamTuple({"k": f"k{i % 5}", "v": i}, timestamp=i * 0.001))
        for _ in range(3):
            engine.step()  # populate handle caches for router/replicas
        engine.run_until_idle()
        removed = ["E__part", "E__gather", "E__r1"]
        controller.plane.scale_in(group, controller)  # k=2 -> teardown
        return engine, removed

    def test_queued_index_has_no_stale_keys_after_merge(self):
        engine, removed = self.elastic_cycle()
        assert set(engine.queued_counts) <= set(engine.network.boxes)
        assert engine.queued_counts == reference_counts(engine.network)

    def test_schedulers_survive_box_removal(self):
        engine, removed = self.elastic_cycle()
        for scheduler in (RoundRobinScheduler(), LongestQueueScheduler(), QoSScheduler()):
            engine.scheduler = scheduler
            engine.invalidate_caches()
            engine.push_many("src", make_stream([{"k": "a", "v": 1}] * 3))
            choice = scheduler.choose(engine)  # no KeyError on removed ids
            assert choice in engine.network.boxes
            engine.run_until_idle()

    def test_metric_handle_caches_pruned_to_live_boxes(self):
        engine, removed = self.elastic_cycle()
        engine.step()  # idle; any public call revalidates against the network
        # The per-box handles live on the routes _sync compiles, and
        # routes exist for live boxes only.
        assert set(engine._routes) == set(engine.network.boxes)
        for box_id in removed:
            assert box_id not in engine._routes
        # The registry keeps the removed boxes' lifetime totals: pruning
        # drops handles, never history.
        per_box = engine.metrics.label_values("engine.box.tuples_in", "box")
        assert per_box.get("E__part", 0) > 0


class TestZeroCostStepIsNotIdle:
    """Idle is "the scheduler chose no box", not "the step cost 0.0":
    with no scheduling overhead a train of free tuples consumes nothing."""

    def free_engine(self):
        net = QueryNetwork()
        net.add_box("a", Filter(lambda t: True, cost_per_tuple=0.0))
        net.connect("in:src", "a")
        net.connect("a", "out:sink")
        return AuroraEngine(net, train_size=5, scheduling_overhead=0.0)

    def test_run_until_idle_runs_every_free_train(self):
        engine = self.free_engine()
        engine.push_many("src", make_stream([{"A": i} for i in range(20)], spacing=0.0))
        assert engine.run_until_idle() == 0.0
        assert engine.queued_counts == {}
        assert len(engine.outputs["sink"]) == 20
        assert engine.steps == 4
        # step() itself keeps its contract: seconds consumed, 0.0 when idle.
        assert engine.step() == 0.0 and engine.steps == 4
