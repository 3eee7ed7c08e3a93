"""Rewrites need no bracket: the network's mutators are the protocol.

``QueryNetwork``'s mutators bump ``revision``; the engine and the
Aurora* system revalidate what they derive from the network's shape on
their next call.  Here a live engine is rewritten through the mutators
alone and must behave exactly like the same script followed by an
explicit ``invalidate_caches()`` after every rewrite, and an
Aurora* deployment must show the right ``boxes_on()`` straight after
every kind of change, with no refresh call anywhere.
"""

from repro.core.engine import AuroraEngine
from repro.core.operators.filter import Filter
from repro.core.operators.map import Map
from repro.core.operators.union import Union
from repro.core.query import QueryNetwork
from repro.core.scheduler import RoundRobinScheduler
from repro.core.tuples import make_stream
from repro.distributed.sliding import slide_box
from repro.distributed.splitting import split_box_distributed
from repro.distributed.system import AuroraStarSystem


def two_pipelines():
    """src -> a -> b -> u <- y <- x <- other, plus ``late`` straight
    into the union: three input arcs to hold backlog on, two fusable
    runs to rewrite."""
    net = QueryNetwork()
    net.add_box("a", Filter(lambda t: t["A"] % 7 != 0, cost_per_tuple=0.002))
    net.add_box("b", Map(lambda v: {"A": v["A"] + 1}, cost_per_tuple=0.001))
    net.add_box("x", Map(lambda v: {"A": v["A"] * 2}, cost_per_tuple=0.001))
    net.add_box("y", Filter(lambda t: t["A"] % 3 != 0, cost_per_tuple=0.002))
    net.add_box("u", Union(3, cost_per_tuple=0.001))
    net.connect("in:src", "a")
    net.connect("a", "b", arc_id="a_b")
    net.connect("b", ("u", 0))
    net.connect("in:other", "x")
    net.connect("x", "y", arc_id="x_y")
    net.connect("y", ("u", 1), arc_id="y_u")
    net.connect("in:late", ("u", 2))
    net.connect("u", "out:sink")
    return net


def rewrite_script(bracketed):
    """Splice ``c`` into the fused a -> b, then retire ``y``, on an
    engine with backlog; every observable along the way."""
    net = two_pipelines()
    scheduler = RoundRobinScheduler()
    engine = AuroraEngine(net, scheduler=scheduler, train_size=5)
    seen = {"runs": [sorted(engine.fused_runs())], "queued": []}

    def rewrite(mutate):
        mutate()
        if bracketed:
            engine.invalidate_caches()
        seen["runs"].append(sorted(engine.fused_runs()))
        seen["queued"].append(dict(engine.queued_counts))

    def feed(start):
        for name, n in (("src", 1000), ("other", 60), ("late", 30)):
            rows = [{"A": start + i} for i in range(n)]
            engine.push_many(name, make_stream(rows, start_time=start * 0.001))

    def splice_c():
        net.add_box("c", Filter(lambda t: t["A"] % 11 != 0, cost_per_tuple=0.003))
        net.rewire_target(net.arcs["a_b"], "c")
        net.connect("c", "b")

    def retire_y():
        net.remove_arc("y_u")
        net.rewire_target(net.arcs["x_y"], ("u", 1))
        net.remove_box("y")

    feed(0)
    for _ in range(4):
        engine.step()
    rewrite(splice_c)
    for _ in range(4):
        engine.step()
    # Park the cursor on the last slot: one box fewer and it points
    # past the end of box_order.
    scheduler._cursor = len(engine.box_order) - 1
    rewrite(retire_y)
    seen["cursor"] = scheduler._cursor
    seen["next"] = scheduler.choose(engine)
    feed(2000)
    engine.run_until_idle()
    engine.flush()
    seen["runs"].append(sorted(engine.fused_runs()))
    seen["queued"].append(dict(engine.queued_counts))
    seen["outputs"] = [(t.values, t.timestamp) for t in engine.outputs["sink"]]
    seen["clock"] = engine.clock
    seen["steps"] = engine.steps
    seen["stats"] = {
        box_id: (box.tuples_in, box.tuples_out, box.busy_time, box.latency_sum)
        for box_id, box in net.boxes.items()
    }
    return seen


class TestEngine:
    def test_mutators_alone_equal_the_bracketed_script(self):
        bare, bracketed = rewrite_script(False), rewrite_script(True)
        assert bare == bracketed

    def test_the_script_rewrites_what_it_claims(self):
        seen = rewrite_script(False)
        assert seen["runs"] == [
            [["a", "b"], ["x", "y"]],
            [["a", "c", "b"], ["x", "y"]],
            [["a", "c", "b"]],
            [["a", "c", "b"]],
        ]
        # Backlog on several arcs at both rewrites, none left at the end.
        assert [sorted(q) for q in seen["queued"]] == [
            ["a", "u", "x"], ["a", "u", "x"], [],
        ]
        a, b, c, u = (seen["stats"][box_id] for box_id in "abcu")
        assert "y" not in seen["stats"]
        # The spliced box runs — nothing threads past it: what a emitted
        # reached b directly before the splice and through c after it.
        assert a[0] == 2000
        assert 0 < c[0] < a[1]
        assert b[0] == a[1] - c[0] + c[1]
        # The cursor was clamped, not left past the shrunken order.
        assert seen["cursor"] == 0 and seen["next"] == "a"
        # All three inputs reach the sink through the union.
        assert len(seen["outputs"]) == u[1] == u[0] > b[1] + 60


def deploy_chain():
    """in:src -> c0 -> c1 -> c2 -> c3 -> out:sink, all on n1 of two
    nodes (c0 and c2 drop multiples of 5, c1 and c3 add 1)."""
    net = QueryNetwork()
    prev = "in:src"
    for i in range(4):
        box_id = f"c{i}"
        if i % 2 == 0:
            net.add_box(box_id, Filter(lambda t: t["A"] % 5 != 0))
        else:
            net.add_box(box_id, Map(lambda v: {"A": v["A"] + 1}))
        net.connect(prev, box_id)
        prev = box_id
    net.connect(prev, "out:sink")
    system = AuroraStarSystem(net)
    system.add_node("n1")
    system.add_node("n2")
    system.deploy({f"c{i}": "n1" for i in range(4)})
    return system


def hosted_oracle(system, node):
    return [
        box_id for box_id in system.network.topological_order()
        if system.placement[box_id] == node
    ]


class TestAuroraStar:
    def test_views_follow_every_kind_of_change(self):
        system = deploy_chain()
        assert system.boxes_on("n1") == ["c0", "c1", "c2", "c3"]

        system.set_placement("c3", "n2")
        assert system.boxes_on("n1") == ["c0", "c1", "c2"]
        assert system.boxes_on("n2") == ["c3"]

        slide_box(system, "c2", "n2")
        # Mid-slide: a migrating box is still at home.
        assert system.boxes_on("n1") == ["c0", "c1", "c2"]
        system.run()
        assert system.boxes_on("n2") == ["c2", "c3"]

        result = split_box_distributed(
            system, "c1", lambda t: t["A"] % 2 == 0, to_node="n2"
        )
        for node in system.nodes:
            assert system.boxes_on(node) == hosted_oracle(system, node)
        assert result.copy in system.boxes_on("n2")
        assert result.router in system.boxes_on("n1")

    def test_a_placement_change_takes_effect_mid_stream(self):
        system = deploy_chain()
        rows = [{"A": i} for i in range(60)]
        system.schedule_source("src", make_stream(rows, spacing=0.002))
        system.sim.schedule(0.03, system.set_placement, "c3", "n2")
        system.run()
        assert [t["A"] for t in system.outputs["sink"]] == [
            i + 2 for i in range(60) if i % 5 != 0 and (i + 1) % 5 != 0
        ]
        # c3 ran where it was placed: on n1 before the change, on n2
        # after.
        boxes = system.network.boxes
        n1, n2 = system.nodes["n1"], system.nodes["n2"]
        assert 0 < n2.tuples_processed < boxes["c3"].tuples_in
        assert n1.tuples_processed + n2.tuples_processed == sum(
            box.tuples_in for box in boxes.values()
        )
