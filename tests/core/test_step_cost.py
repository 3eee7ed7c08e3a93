"""A step costs what it touches: the queued index is the one thing the
engine's hot loop and every scheduler read about queue state.

Two kinds of test.  *Agreement*: after every public engine call, over
random networks and the hand-built corners (spill, connection points,
``drain_boxes``, ``flush``, elastic split / merge), the index
equals its from-scratch definition — ``Box.queued()`` per box,
``QueryNetwork.total_queued()`` in sum.  *Cost*: a step on a wide
network with one short active path looks at a bounded number of arcs,
whatever the network's size (``STEP_COST_BOXES``; CI's perf-smoke job
runs it at 2 000) — counted, not timed.
"""

import os
import random

import pytest

from repro.core.columnar import ColumnarTrain
from repro.core.elasticity import ElasticityController, ElasticityPolicy, EnginePlane
from repro.core.engine import AuroraEngine
from repro.core.operators.filter import Filter
from repro.core.operators.map import Map
from repro.core.query import Arc, QueryNetwork
from repro.core.scheduler import SCHEDULERS
from repro.core.storage import StorageManager
from repro.core.tuples import StreamTuple, make_stream
from repro.reference import replay

from tests.core.test_engine_fixes import reference_counts
from tests.core.test_fusion_property import random_network
from tests.core.test_reference import rows_of

STEP_COST_BOXES = int(os.environ.get("STEP_COST_BOXES", "200"))


def assert_index_is_the_queues(engine):
    assert engine.queued_counts == reference_counts(engine.network)
    assert engine.queued_total == engine.network.total_queued()


class Checked:
    """An engine whose every public call is followed by the agreement check."""

    CALLS = (
        "push", "push_many", "push_train", "step", "run_until_idle",
        "drain_boxes", "flush", "flush_box", "invalidate_caches",
    )

    def __init__(self, engine):
        self.engine = engine
        assert_index_is_the_queues(engine)

    def __getattr__(self, name):
        attr = getattr(self.engine, name)
        if name not in self.CALLS:
            return attr

        def checked(*args, **kwargs):
            result = attr(*args, **kwargs)
            assert_index_is_the_queues(self.engine)
            return result

        return checked


def rows(n, start=0):
    return [{"G": (i // 2) % 3, "A": i} for i in range(start, start + n)]


# -- agreement ---------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["rows", "trains", "reference"])
def test_index_is_the_queues_over_random_networks(mode):
    for seed in range(20):
        rng = random.Random(seed)
        flags = {"batch_execution": False, "fusion": False} if mode == "reference" else {}
        engine = Checked(
            AuroraEngine(random_network(rng), train_size=rng.randint(3, 9), **flags)
        )
        for chunk in range(3):
            for name in sorted(engine.network.inputs):
                stream = make_stream(rows(rng.randint(5, 20)), start_time=chunk * 1.0,
                                     spacing=0.002)
                if mode == "trains":
                    engine.push_train(name, ColumnarTrain.from_tuples(stream))
                elif rng.random() < 0.5:
                    engine.push_many(name, stream)
                else:
                    for tup in stream:
                        engine.push(name, tup)
                for _ in range(rng.randint(0, 3)):
                    engine.step()
            engine.run_until_idle()
        engine.flush()
        assert engine.idle and engine.queued_total == 0


def two_stage(connection_point=False, **engine_args):
    net = QueryNetwork()
    net.add_box("a", Map(lambda v: dict(v)))
    net.add_box("b", Filter(lambda t: True))
    net.connect("in:src", "a")
    net.connect("a", "b", connection_point=connection_point)
    net.connect("b", "out:sink")
    return Checked(AuroraEngine(net, **engine_args))


def test_index_is_the_queues_while_the_storage_manager_spills():
    storage = StorageManager(memory_budget=8, write_cost=0.001, read_cost=0.001)
    engine = two_stage(storage=storage, train_size=5, push_trains=False)
    engine.push_many("src", make_stream(rows(40), spacing=0.0))
    for _ in range(6):
        engine.step()
    assert storage.tuples_spilled > 0
    engine.push_train("src", ColumnarTrain.from_tuples(make_stream(rows(30, 40))))
    engine.run_until_idle()
    assert storage.tuples_unspilled > 0
    assert len(engine.outputs["sink"]) == 70


def test_index_excludes_what_a_choked_connection_point_holds():
    engine = two_stage(connection_point=True, train_size=4)
    arc = engine.network.boxes["b"].input_arcs[0]
    engine.push_many("src", make_stream(rows(6)))
    arc.connection_point.choke()
    engine.run_until_idle()  # a's emissions are held at the choke, not queued
    assert len(arc.connection_point.held) == 6 and engine.idle
    # Replaying the held tuples is an enqueue behind the engine's back:
    # invalidate_caches() is how it enters the index.
    for tup in arc.connection_point.unchoke():
        arc.push(tup)
    assert engine.idle
    engine.invalidate_caches()
    assert engine.queued_counts == {"b": 6}
    engine.run_until_idle()
    assert len(engine.outputs["sink"]) == 6


def filter_chain():
    """src -> f0 -> f1 -> f2 -> sink: one superbox."""
    net = QueryNetwork()
    for box_id in ("f0", "f1", "f2"):
        net.add_box(box_id, Filter(lambda t: True))
    net.connect("in:src", "f0")
    net.connect("f0", "f1")
    net.connect("f1", "f2")
    net.connect("f2", "out:sink")
    return net


def test_index_is_the_queues_through_drain_and_flush():
    engine = Checked(AuroraEngine(filter_chain(), train_size=3))
    assert engine.fused_runs() == [["f0", "f1", "f2"]]
    engine.push_many("src", make_stream(rows(10)))
    engine.step()
    engine.step()
    assert engine.drain_boxes(["f0"]) == 4  # what two trains of three left behind
    engine.push_many("src", make_stream(rows(5, 10)))
    engine.flush_box("f0")
    engine.push_many("src", make_stream(rows(5, 15)))
    engine.flush()
    assert len(engine.outputs["sink"]) == 20


def test_drain_boxes_runs_a_fused_head_through_its_superbox():
    """Draining the head of a superbox empties it through the superbox:
    the index stays the queues after every call, nothing is left at the
    interior members, and the run is still the replay of its log."""
    engine = Checked(AuroraEngine(filter_chain(), train_size=3))
    engine.engine.decision_log = log = []
    engine.push_many("src", make_stream(rows(10)))
    engine.step()
    assert engine.queued_counts == {"f0": 7}
    assert engine.drain_boxes(["f0"]) == 7
    assert engine.idle and len(engine.outputs["sink"]) == 10
    # The step's train of three, then the drain's one train of seven.
    trains = [entry for entry in log if entry[0] == "train"]
    assert [(t[1], t[2], t[3]) for t in trains] == [("f0", 3, ["f0", "f1", "f2"]),
                                                   ("f0", 7, ["f0", "f1", "f2"])]
    engine.flush()
    result = replay(filter_chain(), log)
    assert rows_of(engine.outputs) == rows_of(result.outputs)
    assert engine.clock == result.clock
    assert engine.steps == result.steps


def test_index_is_the_queues_across_an_elastic_split_and_merge():
    net = QueryNetwork()
    net.add_box("E", Map(lambda v: dict(v)))
    net.connect("in:src", "E")
    net.connect("E", "out:sink")
    engine = Checked(AuroraEngine(net, load_window=0.05))
    controller = ElasticityController(
        EnginePlane(engine.engine),
        ElasticityPolicy(high_water=0.5, low_water=0.2, cooldown=0.0),
        metrics=engine.metrics,
    )
    controller.watch("E", ("k",))
    group = controller.groups["E"]

    def offer(n):
        for i in range(n):
            engine.push("src", StreamTuple({"k": f"k{i % 5}", "v": i}, timestamp=i * 0.001))

    offer(10)
    controller.plane.split(group, controller)
    offer(25)  # the first public call after the rewrite re-syncs
    engine.step()
    controller.plane.scale_out(group, controller)
    offer(10)
    for _ in range(3):
        engine.step()
    controller.plane.scale_in(group, controller)
    offer(5)
    controller.plane.scale_in(group, controller)  # k=2 -> merged back
    engine.run_until_idle()
    assert set(engine.queued_counts) <= set(engine.network.boxes)
    assert len(engine.outputs["sink"]) == 50


# -- one rule for outside enqueues ---------------------------------------------------


def test_every_scheduler_sees_an_outside_enqueue_only_through_invalidate_caches():
    net = QueryNetwork()
    for i in range(3):
        net.add_box(f"b{i}", Filter(lambda t: True))
        net.connect(f"in:s{i}", f"b{i}")
        net.connect(f"b{i}", f"out:o{i}")
    engine = AuroraEngine(net)
    arc = net.boxes["b1"].input_arcs[0]
    arc.push(StreamTuple({"A": 1}))
    schedulers = [cls() for cls in SCHEDULERS.values()]
    assert len(schedulers) == 3
    # The index is the truth: nobody sees the tuple ...
    assert [s.choose(engine) for s in schedulers] == [None, None, None]
    assert engine.idle and engine.step() == 0.0
    # End of stream is where a forgotten call would lose the tuple: loud.
    with pytest.raises(RuntimeError, match="invalidate_caches"):
        engine.flush()
    # ... until invalidate_caches() rebuilds it from the queues.
    engine.invalidate_caches()
    assert [s.choose(engine) for s in schedulers] == ["b1", "b1", "b1"]
    engine.run_until_idle()
    assert len(engine.outputs["o1"]) == 1 and engine.queued_total == 0


def test_round_robin_over_the_index_is_the_scan_from_the_cursor():
    """``RoundRobinScheduler.choose`` ranks the queued boxes by distance
    from the cursor; it picks what the box-by-box scan of ``box_order``
    from the cursor picked, and leaves the cursor where that left it."""
    rng = random.Random(3)
    for n_boxes in (1, 2, 5, 30):
        net = QueryNetwork()
        for i in range(n_boxes):
            net.add_box(f"b{i:02d}", Filter(lambda t: True))
            net.connect(f"in:s{i}", f"b{i:02d}")
            net.connect(f"b{i:02d}", f"out:o{i}")
        engine = AuroraEngine(net, push_trains=False, train_size=2)
        scheduler = engine.scheduler
        cursor = 0
        for _ in range(150):
            for i in rng.sample(range(n_boxes), rng.randint(0, n_boxes)):
                engine.push_many(f"s{i}", make_stream(rows(rng.randint(1, 3))))
            expected = None
            for offset in range(n_boxes):
                box_id = engine.box_order[(cursor + offset) % n_boxes]
                if net.boxes[box_id].queued():
                    expected = box_id
                    cursor = (cursor + offset + 1) % n_boxes
                    break
            assert scheduler.choose(engine) == expected
            assert scheduler._cursor == cursor
            if expected is not None:
                engine._run_train(expected)


# -- cost ------------------------------------------------------------------------------


def wide_network(n_boxes):
    """``n_boxes`` boxes: one 3-box path and idle single-box streams."""
    net = QueryNetwork()
    for box_id in ("p0", "p1", "p2"):
        net.add_box(box_id, Filter(lambda t: True))
    net.connect("in:active", "p0", connection_point=True)  # a barrier: nothing fuses
    net.connect("p0", "p1", connection_point=True)
    net.connect("p1", "p2", connection_point=True)
    net.connect("p2", "out:active")
    for i in range(n_boxes - 3):
        net.add_box(f"idle{i:05d}", Filter(lambda t: True))
        net.connect(f"in:idle{i}", f"idle{i:05d}")
        net.connect(f"idle{i:05d}", f"out:idle{i}")
    return net


class CountedOrder(list):
    """``box_order`` that counts the entries read out of it."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)

    def __iter__(self):
        for item in super().__iter__():
            self.reads += 1
            yield item


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_a_step_looks_at_a_bounded_number_of_arcs(scheduler, monkeypatch):
    engine = AuroraEngine(
        wide_network(STEP_COST_BOXES), scheduler=SCHEDULERS[scheduler](), train_size=5
    )
    assert engine.fused_runs() == []
    engine.push_many("active", make_stream(rows(12)))
    # Warm: every lazily bound handle exists after this, and a
    # round-robin cursor stands behind p0 with the idle boxes between.
    engine.step()

    order = engine.box_order = CountedOrder(engine.box_order)
    calls = []
    real = Arc.queued_tuples
    monkeypatch.setattr(
        Arc, "queued_tuples", lambda arc: calls.append(arc.id) or real(arc)
    )
    consumed = engine.step()
    idle = engine.idle
    monkeypatch.undo()

    assert consumed > 0 and not idle
    assert len(engine.outputs["active"]) == 10  # two trains went the whole path
    # Three boxes ran; nothing walked the other STEP_COST_BOXES - 3,
    # neither their arcs nor their places in the scheduling order.
    assert len(calls) <= 6, (len(calls), STEP_COST_BOXES)
    assert order.reads <= 6, (order.reads, STEP_COST_BOXES)
