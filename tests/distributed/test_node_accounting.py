"""The Aurora* node's per-train accounting, pinned to literals.

A node charges one float chain per train (``consumed =
scheduling_overhead``, then ``consumed += cost`` per tuple) and books it
to the box, the node and the simulator clock.  Every sim-time float of
the sweeps and ``BENCH_SLO.json`` hangs off that chain, so a rewrite of
``AuroraNode._run_train`` must reproduce it to the bit: the literals
below were recorded before the superbox stage loop left the node and
are compared with ``==``, never ``approx``.

``events`` is the one literal that moved since: a node runs the
wake-up that would fire next when the event that made it due returns
instead of scheduling it (``Simulator.owe``), which removes events
(890 before, 581 after) and changes no other value below.
"""

from repro.core.engine import claim_run
from repro.core.operators.filter import Filter
from repro.core.operators.map import Map
from repro.core.operators.union import Union
from repro.core.query import QueryNetwork
from repro.core.tuples import make_stream
from repro.distributed import node as node_module
from repro.distributed.system import AuroraStarSystem


def fan_in_deployment():
    """left -> a (n1) -\\
                        u -> m (both n3) -> sink
    right -> b (n2) ---/

    The union's two input arcs are fed from two other nodes and fall
    behind (it costs more than both feeders together), so its trains
    interleave several ``claim_run`` claims.
    """
    net = QueryNetwork("fan_in")
    net.add_box("a", Filter(lambda t: t["A"] % 7 != 0, cost_per_tuple=0.0004))
    net.add_box("b", Map(lambda v: {"A": v["A"] * 3}, cost_per_tuple=0.0003))
    net.add_box("u", Union(2, cost_per_tuple=0.0011))
    net.add_box("m", Map(lambda v: {"A": v["A"] + 1}, cost_per_tuple=0.0002))
    net.connect("in:left", "a")
    net.connect("in:right", "b")
    net.connect("a", ("u", 0))
    net.connect("b", ("u", 1))
    net.connect("u", "m")
    net.connect("m", "out:sink")
    system = AuroraStarSystem(net)
    system.add_node("n1", train_size=4)
    system.add_node("n2", cpu_capacity=1.5, train_size=4)
    system.add_node("n3", cpu_capacity=0.8, train_size=6)
    system.deploy({"a": "n1", "b": "n2", "u": "n3", "m": "n3"})
    return system


def observe():
    system = fan_in_deployment()
    left = make_stream([{"A": i} for i in range(90)], spacing=0.0007)
    right = make_stream(
        [{"A": i} for i in range(70)], start_time=0.0003, spacing=0.0009
    )
    system.schedule_source("left", left)
    system.schedule_source("right", right)
    system.run()
    system.flush()
    boxes = {
        box_id: (
            box.tuples_in, box.tuples_out, box.busy_time,
            box.latency_sum, box.latency_count,
        )
        for box_id, box in system.network.boxes.items()
    }
    nodes = {
        name: (node.busy_time, node.tuples_processed)
        for name, node in system.nodes.items()
    }
    return system, boxes, nodes


def test_fan_in_trains_take_several_claims(monkeypatch):
    """Non-vacuity: the union's trains interleave its two arcs, so one
    train is several claims (and several additions to the cost chain)."""
    claims = []

    def counting(box, budget, keys):
        arc, n = claim_run(box, budget, keys)
        if arc is not None and box.id == "u":
            claims.append(arc.id)
        return arc, n

    monkeypatch.setattr(node_module, "claim_run", counting)
    _system, boxes, _nodes = observe()
    union_trains = boxes["u"][4]
    assert len(set(claims)) == 2
    assert len(claims) > 3 * union_trains


def test_a_lone_arc_train_is_one_claim(monkeypatch):
    """A lone arc gives all it has in the first claim (``min(budget,
    len(queue))``), so asking again is a call that always finds nothing;
    the pinned literals below hold with or without it."""
    claims = {"a": 0, "b": 0, "m": 0}

    def counting(box, budget, keys):
        if box.id in claims:
            claims[box.id] += 1
        return claim_run(box, budget, keys)

    monkeypatch.setattr(node_module, "claim_run", counting)
    _system, boxes, _nodes = observe()
    # latency_count is the box's train count (one coarse sample a train).
    assert claims == {box_id: boxes[box_id][4] for box_id in claims}


def test_three_node_fan_in_chain_is_bit_identical():
    system, boxes, nodes = observe()
    assert system.sim.now == PINNED["now"]
    assert system.sim.events_processed == PINNED["events"]
    assert boxes == PINNED["boxes"]
    assert nodes == PINNED["nodes"]
    assert system.metrics.snapshot() == PINNED["metrics"]


PINNED = {
    "now": 0.2509150000000002,
    "events": 581,
    "boxes": {
        "a": (90, 77, 0.05400000000000012, 0.05400000000000012, 90),
        "b": (70, 70, 0.02800000000000002, 0.02800000000000002, 70),
        "u": (147, 147, 0.2073250000000001, 0.2073250000000001, 26),
        "m": (147, 147, 0.04175, 0.04175, 25),
    },
    "nodes": {
        "n1": (0.05400000000000012, 90),
        "n2": (0.02800000000000002, 70),
        "n3": (0.24907500000000024, 294),
    },
    "metrics": {
        "counters": {
            "node.trains{node=n1}": 90,
            "node.trains{node=n2}": 70,
            "node.trains{node=n3}": 51,
            "node.tuples_processed{node=n1}": 90,
            "node.tuples_processed{node=n2}": 70,
            "node.tuples_processed{node=n3}": 294,
            "system.delivered.tuples{stream=sink}": 147,
            "system.ingest.tuples{input=left}": 90,
            "system.ingest.tuples{input=right}": 70,
            "transport.bytes{dst=n3,src=n1}": 10780,
            "transport.bytes{dst=n3,src=n2}": 9800,
            "transport.frames{dst=n3,src=n1}": 77,
            "transport.frames{dst=n3,src=n2}": 70,
            "transport.tuples{dst=n3,src=n1}": 77,
            "transport.tuples{dst=n3,src=n2}": 70,
        },
        "gauges": {},
        "histograms": {},
    },
}
