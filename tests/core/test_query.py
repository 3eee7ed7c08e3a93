"""Tests for query networks and the synchronous reference executor."""

import random

import pytest

from repro.core.operators.filter import Filter
from repro.core.operators.map import Map
from repro.core.operators.tumble import Tumble
from repro.core.operators.union import Union
from repro.core.query import ConnectionPoint, QueryError, QueryNetwork, execute
from repro.core.tuples import FIGURE_2_STREAM, StreamTuple, make_stream
from tests.core.test_fusion_property import random_network


def linear_network():
    net = QueryNetwork("linear")
    net.add_box("f", Filter(lambda t: t["A"] > 0))
    net.add_box("m", Map(lambda v: {"A": v["A"] * 10}))
    net.connect("in:src", "f")
    net.connect("f", "m")
    net.connect("m", "out:sink")
    return net


class TestConstruction:
    def test_duplicate_box_rejected(self):
        net = QueryNetwork()
        net.add_box("f", Filter(lambda t: True))
        with pytest.raises(QueryError):
            net.add_box("f", Filter(lambda t: True))

    def test_reserved_names_rejected(self):
        net = QueryNetwork()
        with pytest.raises(QueryError):
            net.add_box("in", Filter(lambda t: True))

    def test_unknown_box_in_connect(self):
        net = QueryNetwork()
        with pytest.raises(QueryError):
            net.connect("in:x", "ghost")

    def test_bad_output_port_rejected(self):
        net = QueryNetwork()
        net.add_box("f", Filter(lambda t: True))  # single output port
        net.connect("in:x", "f")
        with pytest.raises(QueryError):
            net.connect(("f", 1), "out:y")

    def test_bad_input_port_rejected(self):
        net = QueryNetwork()
        net.add_box("f", Filter(lambda t: True))
        with pytest.raises(QueryError):
            net.connect("in:x", ("f", 3))

    def test_double_connected_input_port_rejected(self):
        net = QueryNetwork()
        net.add_box("f", Filter(lambda t: True))
        net.connect("in:x", "f")
        with pytest.raises(QueryError):
            net.connect("in:y", "f")

    def test_duplicate_output_stream_rejected(self):
        net = QueryNetwork()
        net.add_box("f", Filter(lambda t: True))
        net.connect("in:x", "f")
        net.connect("f", "out:y")
        with pytest.raises(QueryError):
            net.connect("f", "out:y")

    def test_validate_catches_unwired_input(self):
        net = QueryNetwork()
        net.add_box("u", Union(2))
        net.connect("in:x", ("u", 0))
        net.connect("u", "out:y")
        with pytest.raises(QueryError, match="not connected"):
            net.validate()

    def test_cycle_detected(self):
        net = QueryNetwork()
        net.add_box("a", Union(2))
        net.add_box("b", Map(lambda v: v))
        net.connect("in:x", ("a", 0))
        net.connect("a", "b")
        net.connect("b", ("a", 1))
        with pytest.raises(QueryError, match="cycle"):
            net.topological_order()


class TestTopology:
    def test_topological_order_linear(self):
        assert linear_network().topological_order() == ["f", "m"]

    def test_upstream_and_downstream(self):
        net = linear_network()
        assert net.upstream_box("m") == "f"
        assert net.upstream_box("f") is None
        assert net.downstream_boxes("f") == ["m"]
        assert net.downstream_boxes("m") == []

    def test_fanout_duplicates_tuples(self):
        net = QueryNetwork()
        net.add_box("m", Map(lambda v: v))
        net.connect("in:x", "m")
        net.connect("m", "out:a")
        net.connect("m", "out:b")
        results = execute(net, {"x": make_stream([{"A": 1}])})
        assert len(results["a"]) == 1
        assert len(results["b"]) == 1


def wiring(net):
    """Every endpoint table of the network, copied."""
    return (
        {arc_id: (arc.source, arc.target) for arc_id, arc in net.arcs.items()},
        {name: list(arcs) for name, arcs in net.inputs.items()},
        dict(net.outputs),
        {box_id: dict(box.input_arcs) for box_id, box in net.boxes.items()},
        {
            box_id: {port: list(arcs) for port, arcs in box.output_arcs.items()}
            for box_id, box in net.boxes.items()
        },
    )


class TestRejectedRewire:
    """A rewire the network refuses must leave it exactly as it was:
    ``cut_network`` and every elasticity rewrite go through these."""

    def network(self):
        net = linear_network()
        net.add_box("u", Union(2))
        net.connect("in:other", ("u", 0), arc_id="other_u")
        net.connect("in:more", ("u", 1))
        net.connect("u", "out:merged", arc_id="u_merged")
        return net

    @pytest.mark.parametrize(
        "arc_id, target, message",
        [
            ("arc1", "out:sink", "duplicate output stream"),
            ("arc1", ("u", 0), "already connected"),
            ("arc1", ("u", 2), "no input port"),
            ("arc1", "ghost", "unknown box"),
            ("u_merged", "out:sink", "duplicate output stream"),
        ],
    )
    def test_rejected_target_changes_nothing(self, arc_id, target, message):
        net = self.network()
        before = wiring(net)
        with pytest.raises(QueryError, match=message):
            net.rewire_target(net.arcs[arc_id], target)
        assert wiring(net) == before
        net.validate()

    @pytest.mark.parametrize(
        "source, message",
        [(("f", 1), "no output port"), ("ghost", "unknown box")],
    )
    def test_rejected_source_changes_nothing(self, source, message):
        net = self.network()
        before = wiring(net)
        with pytest.raises(QueryError, match=message):
            net.rewire_source(net.arcs["other_u"], source)
        assert wiring(net) == before
        net.validate()

    def test_rewire_onto_its_own_endpoint_is_accepted(self):
        net = self.network()
        before = wiring(net)
        net.rewire_target(net.arcs["arc1"], "m")
        net.rewire_target(net.arcs["u_merged"], "out:merged")
        assert wiring(net) == before


def uncached_order(net):
    """``topological_order()`` of a fresh network over the same dicts:
    the same algorithm with no memo to consult."""
    fresh = QueryNetwork()
    fresh.boxes, fresh.arcs = net.boxes, net.arcs
    return fresh.topological_order()


class TestRevision:
    def test_every_mutator_bumps_and_no_read_does(self):
        net = linear_network()
        mutations = [
            lambda: net.add_box("g", Filter(lambda t: True)),
            lambda: net.rewire_target(net.boxes["m"].input_arcs[0], "g"),
            lambda: net.connect("g", "m", arc_id="g_m"),
            lambda: net.rewire_source(net.arcs["g_m"], "f"),
            lambda: net.remove_arc(net.boxes["g"].input_arcs[0].id),
            lambda: net.remove_box("g"),
            net.touch,
        ]
        for mutate in mutations:
            before = net.revision
            mutate()
            assert net.revision > before
        before = net.revision
        net.validate()
        net.topological_order()
        net.upstream_box("m")
        net.downstream_boxes("f")
        list(net.connection_points())
        net.total_queued()
        repr(net)
        execute(net, {"src": make_stream([{"A": 1}])})
        assert net.revision == before
        assert net.topological_order() == ["f", "m"]

    def test_memoized_order_tracks_random_rewrites(self):
        """After every mutation of a random add / connect / rewire /
        remove sequence the memoized order is the uncached one."""
        for seed in range(20):
            rng = random.Random(seed)
            net = random_network(rng)
            assert net.topological_order() == uncached_order(net)
            for step in range(12):
                arcs = [a for a in net.arcs.values() if not a.is_output]
                arc = rng.choice(arcs)
                consumer = arc.target
                box_id = f"x{step}"
                # Splice a box into the arc, one mutator at a time.
                for mutate in (
                    lambda: net.add_box(box_id, Map(lambda v: v)),
                    lambda: net.rewire_target(arc, box_id),
                    lambda: net.connect(box_id, consumer),
                ):
                    mutate()
                    assert net.topological_order() == uncached_order(net), seed
                if rng.random() < 0.5:
                    # ... and retire it again: bypass, unhook, remove.
                    out_arc = net.boxes[box_id].output_arcs[0][0]
                    for mutate in (
                        lambda: net.remove_arc(out_arc.id),
                        lambda: net.rewire_target(arc, consumer),
                        lambda: net.remove_box(box_id),
                    ):
                        mutate()
                        assert net.topological_order() == uncached_order(net), seed
                elif arc.source[0] != "in":
                    # ... or hang it off its producer's producer instead.
                    feeder = net.boxes[arc.source[0]].input_arcs[0].source
                    if feeder[0] != "in":
                        net.rewire_source(arc, feeder)
                        assert net.topological_order() == uncached_order(net), seed
            net.validate()

    def test_callers_own_the_returned_list(self):
        net = linear_network()
        order = net.topological_order()
        order.reverse()
        order.append("ghost")
        assert net.topological_order() == ["f", "m"]
        assert net.topological_order() is not net.topological_order()

    def test_cyclic_network_raises_on_every_call(self):
        net = linear_network()
        net.add_box("u", Union(2))
        net.rewire_target(net.boxes["f"].input_arcs[0], ("u", 0))
        net.connect("u", "f")
        assert net.topological_order() == ["u", "f", "m"]
        net.connect("m", ("u", 1))
        for _ in range(3):
            with pytest.raises(QueryError, match="cycle"):
                net.topological_order()
        # Breaking the cycle makes the order computable again.
        net.remove_arc(net.boxes["u"].input_arcs[1].id)
        assert net.topological_order() == ["u", "f", "m"]


class TestExecute:
    def test_linear_pipeline(self):
        results = execute(
            linear_network(), {"src": make_stream([{"A": 1}, {"A": -1}, {"A": 2}])}
        )
        assert [t["A"] for t in results["sink"]] == [10, 20]

    def test_unknown_input_rejected(self):
        with pytest.raises(QueryError):
            execute(linear_network(), {"ghost": []})

    def test_inputs_merged_in_timestamp_order(self):
        net = QueryNetwork()
        net.add_box("u", Union(2))
        net.connect("in:a", ("u", 0))
        net.connect("in:b", ("u", 1))
        net.connect("u", "out:merged")
        results = execute(net, {
            "a": [StreamTuple({"v": "a0"}, timestamp=0.0),
                  StreamTuple({"v": "a2"}, timestamp=2.0)],
            "b": [StreamTuple({"v": "b1"}, timestamp=1.0)],
        })
        assert [t["v"] for t in results["merged"]] == ["a0", "b1", "a2"]

    def test_flush_drains_windowed_boxes(self):
        net = QueryNetwork()
        net.add_box("t", Tumble("cnt", groupby=("A",), value_attr="A"))
        net.connect("in:src", "t")
        net.connect("t", "out:agg")
        results = execute(net, {"src": make_stream(FIGURE_2_STREAM)})
        assert [t.values for t in results["agg"]] == [
            {"A": 1, "result": 2},
            {"A": 2, "result": 3},
            {"A": 4, "result": 2},  # the in-progress window, flushed
        ]

    def test_flush_false_leaves_windows_open(self):
        net = QueryNetwork()
        net.add_box("t", Tumble("cnt", groupby=("A",), value_attr="A"))
        net.connect("in:src", "t")
        net.connect("t", "out:agg")
        results = execute(net, {"src": make_stream(FIGURE_2_STREAM)}, flush=False)
        assert len(results["agg"]) == 2

    def test_box_statistics_recorded(self):
        net = linear_network()
        execute(net, {"src": make_stream([{"A": 1}, {"A": -5}])})
        box = net.boxes["f"]
        assert box.tuples_in == 2
        assert box.tuples_out == 1
        assert box.selectivity == 0.5


class TestConnectionPoints:
    def test_history_recorded(self):
        net = QueryNetwork()
        net.add_box("m", Map(lambda v: v))
        net.connect("in:x", "m", connection_point=True)
        net.connect("m", "out:y")
        execute(net, {"x": make_stream([{"A": 1}, {"A": 2}])})
        [(arc_id, cp)] = list(net.connection_points())
        assert [t["A"] for t in cp.read_history()] == [1, 2]
        assert cp.tuples_seen == 2

    def test_retention_bounds_history(self):
        cp = ConnectionPoint(retention=2)
        for i in range(5):
            cp.record(StreamTuple({"A": i}))
        assert [t["A"] for t in cp.read_history()] == [3, 4]

    def test_choke_holds_tuples(self):
        net = QueryNetwork()
        net.add_box("m", Map(lambda v: v))
        arc = net.connect("in:x", "m", connection_point=True)
        net.connect("m", "out:y")
        arc.connection_point.choke()
        results = execute(net, {"x": make_stream([{"A": 1}])})
        assert results["y"] == []
        assert len(arc.connection_point.held) == 1

    def test_unchoke_returns_held_tuples(self):
        cp = ConnectionPoint()
        cp.choke()
        cp.held.append(StreamTuple({"A": 1}))
        held = cp.unchoke()
        assert len(held) == 1
        assert not cp.choked
        assert len(cp.held) == 0
