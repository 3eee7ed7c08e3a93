"""A node's owed wake-up is the scheduled one, minus the event.

When the ``_work`` event that :meth:`AuroraNode.kick` would schedule is
provably the next event to fire, the simulator runs it when the
callback that made it due returns (:meth:`Simulator.owe`), whatever
that callback is: an arrival, a train completion, a box slide's
completion or a node's recovery.  These tests run generated deployments
twice, once as built and once with ``owe`` refusing every call (every
wake-up an event), and hold the two runs equal on everything a run
reports, float for float.  Arrivals sit on a coarse time grid so that
they tie with each other and with train completions, which is where
the same-instant fallback (schedule) has to take over.
"""

from __future__ import annotations

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from repro.core.operators.filter import Filter
from repro.core.operators.map import Map
from repro.core.operators.tumble import Tumble
from repro.core.operators.union import Union
from repro.core.query import QueryNetwork
from repro.core.tuples import StreamTuple
from repro.distributed.sliding import slide_box
from repro.distributed.system import AuroraStarSystem
from repro.sim import Simulator

GRID = 0.0005  # arrival grid (virtual seconds)
COSTS = (0.0001, 0.0002, 0.0004)


@st.composite
def deployments(draw):
    """A plain-data deployment: boxes over ``{"k", "v"}`` tuples, wired
    as chains, fan-out (a stream read twice) and fan-in (``Union``),
    placed on 1-3 nodes, fed on a coarse grid."""
    n_inputs = draw(st.integers(1, 2))
    streams = [f"in:i{i}" for i in range(n_inputs)]
    boxes = []
    for index in range(draw(st.integers(1, 5))):
        kinds = ["filter", "map", "tumble"] + (["union"] if len(streams) > 1 else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "union":
            sources = draw(st.lists(st.sampled_from(streams), min_size=2, max_size=2, unique=True))
        else:
            sources = [draw(st.sampled_from(streams))]
        param = draw(st.integers(2, 4))
        boxes.append((f"b{index}", kind, param, draw(st.sampled_from(COSTS)), sources))
        streams.append(f"b{index}")
    n_nodes = draw(st.integers(1, 3))
    nodes = [
        (f"n{i}", draw(st.sampled_from((0.5, 1.0, 2.0))), draw(st.integers(1, 4)))
        for i in range(n_nodes)
    ]
    placement = {box[0]: f"n{draw(st.integers(0, n_nodes - 1))}" for box in boxes}
    arrivals = {
        f"i{i}": sorted(draw(st.lists(st.integers(0, 24), min_size=1, max_size=20)))
        for i in range(n_inputs)
    }
    ingress = {
        name: f"n{draw(st.integers(0, n_nodes - 1))}"
        for name in arrivals if draw(st.booleans())
    }
    # An output subscriber that schedules at ``now``: a same-instant
    # event a source arrival's wake-up must not jump.
    echo = draw(st.booleans())
    # Scheduled events that wake nodes outside the data path: a box
    # slide mid-run, and a node outage.
    slide = None
    if n_nodes > 1 and draw(st.booleans()):
        box_id = draw(st.sampled_from([box[0] for box in boxes]))
        target = draw(st.sampled_from([n[0] for n in nodes if n[0] != placement[box_id]]))
        slide = (box_id, target, draw(st.integers(0, 24)))
    outage = None
    if draw(st.booleans()):
        down = draw(st.integers(0, 20))
        outage = (draw(st.sampled_from([n[0] for n in nodes])), down,
                  down + draw(st.integers(1, 8)))
    return boxes, nodes, placement, arrivals, ingress, echo, slide, outage


REWRITING: list[bool] = []  # non-empty while a slide or outage event runs


def rewrite(fn, *args) -> None:
    """A scheduled slide or outage event; marks the wake-ups it makes."""
    REWRITING.append(True)
    try:
        fn(*args)
    finally:
        REWRITING.pop()


def build(spec) -> AuroraStarSystem:
    boxes, nodes, placement, arrivals, ingress, echo, slide, outage = spec
    net = QueryNetwork("generated")
    read = set()
    for box_id, kind, param, cost, sources in boxes:
        if kind == "filter":
            op = Filter(lambda t, m=param: t["v"] % m != 0, cost_per_tuple=cost)
        elif kind == "map":
            op = Map(lambda v, c=param: {"k": v["k"], "v": v["v"] + c}, cost_per_tuple=cost)
        elif kind == "tumble":
            op = Tumble("sum", groupby=("k",), value_attr="v", result_attr="v",
                        mode="count", window_size=param - 1, cost_per_tuple=cost)
        else:
            op = Union(2, cost_per_tuple=cost)
        net.add_box(box_id, op)
        for port, source in enumerate(sources):
            net.connect(source, (box_id, port))
            read.add(source)
    unread = [f"in:{name}" for name in arrivals] + [box[0] for box in boxes]
    for index, stream in enumerate(s for s in unread if s not in read):
        net.connect(stream, f"out:o{index}")
    system = AuroraStarSystem(net)
    for name, cpu, train in nodes:
        system.add_node(name, cpu_capacity=cpu, train_size=train)
    system.deploy(placement)
    for name, node in ingress.items():
        system.bind_input(name, node)
    if echo:
        for output in net.outputs:
            system.subscribe_output(output, lambda _tup: system.sim.schedule(0.0, lambda: None))
    for name, ticks in arrivals.items():
        system.schedule_source(name, [
            StreamTuple({"k": i % 3, "v": 7 * i + tick}, timestamp=tick * GRID)
            for i, tick in enumerate(ticks)
        ])
    sim = system.sim
    if slide is not None:
        box_id, target, tick = slide
        sim.schedule_at(tick * GRID, rewrite, slide_box, system, box_id, target)
    if outage is not None:
        name, down, up = outage
        sim.schedule_at(down * GRID, rewrite, system.nodes[name].fail)
        sim.schedule_at(up * GRID, rewrite, system.nodes[name].recover)
    return system


def run(spec, scheduled: bool):
    """(everything the run reports, events, ``owe`` outcomes by branch:
    owed, refused inside a callback, owed by a slide or an outage).

    ``scheduled`` makes ``owe`` refuse every call: the wake-up is always
    an event, as before the simulator owed calls."""
    branches = {"direct": 0, "fallback": 0, "rewrite": 0}
    owe = Simulator.owe

    def counted(sim, fn, *args):
        inside = sim._owed is not None
        owed = owe(sim, fn, *args)
        if owed:
            branches["direct"] += 1
            branches["rewrite"] += bool(REWRITING)
        elif inside:
            branches["fallback"] += 1
        return owed

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Simulator, "owe", (lambda *_: False) if scheduled else counted)
        system = build(spec)
        system.run()
        system.flush()
    net = system.network
    report = {
        "outputs": {name: [(t.values, t.timestamp) for t in tuples]
                    for name, tuples in system.outputs.items()},
        "latencies": system.output_latencies,
        "boxes": {box_id: (box.tuples_in, box.tuples_out, box.busy_time,
                           box.latency_sum, box.latency_count)
                  for box_id, box in net.boxes.items()},
        "nodes": {name: (node.busy_time, node.tuples_processed)
                  for name, node in system.nodes.items()},
        "links": {key: (link.busy_until, link.messages_sent, link.bytes_sent)
                  for key, link in system.overlay.links.items()},
        "metrics": system.metrics.snapshot(),
        "now": system.sim.now,
    }
    return report, system.sim.events_processed, branches


def check_exact(spec) -> dict[str, int]:
    report, events, branches = run(spec, scheduled=False)
    want, want_events, _ = run(spec, scheduled=True)
    assert report == want
    # Each owed wake-up is exactly one event fewer (so never more
    # events than the scheduled run), and nothing else moves.
    assert events <= want_events
    assert want_events - events == branches["direct"]
    return branches


@settings(max_examples=60, deadline=None)
@given(deployments())
def test_owed_wake_up_is_exact(spec):
    check_exact(spec)


def find_branch(branch: str) -> dict[str, int]:
    spec = find(deployments(), lambda s: run(s, scheduled=False)[2][branch] > 0,
                settings=settings(max_examples=200, database=None, deadline=None))
    return check_exact(spec)


@pytest.mark.parametrize("branch", ["direct", "fallback"])
def test_corpus_takes_both_branches(branch):
    """Non-vacuity: the generator reaches deployments that owe a
    wake-up (run directly) and ones where a same-instant event forces
    the schedule."""
    assert find_branch(branch)[branch] > 0


def test_corpus_owes_wake_ups_from_slides_and_recoveries():
    """Non-vacuity: a slide's completion or a node's recovery (not an
    arrival or a train completion) owes a wake-up somewhere."""
    assert find_branch("rewrite")["rewrite"] > 0


def test_chain_fed_slower_than_it_serves_runs_two_events_per_box_tuple():
    """Three nodes, one box each, arrivals spaced wider than a train:
    every box-tuple costs its arrival (source event or overlay delivery)
    and its train completion, and no wake-up is an event."""
    net = QueryNetwork("chain")
    net.add_box("f", Filter(lambda t: t["v"] % 5 != 0, cost_per_tuple=0.0001))
    net.add_box("m", Map(lambda v: {"k": v["k"], "v": v["v"] + 1}, cost_per_tuple=0.0001))
    net.add_box("w", Tumble("sum", groupby=("k",), value_attr="v", mode="count",
                            window_size=4, cost_per_tuple=0.0002))
    net.connect("in:src", "f")
    net.connect("f", "m")
    net.connect("m", "w")
    net.connect("w", "out:sums")
    system = AuroraStarSystem(net)
    for name in ("n0", "n1", "n2"):
        system.add_node(name)
    system.deploy({"f": "n0", "m": "n1", "w": "n2"})
    system.schedule_source("src", [
        StreamTuple({"k": i % 4, "v": i}, timestamp=(i + 1) * 0.001) for i in range(200)
    ])
    system.run()
    system.flush()
    box_tuples = sum(node.tuples_processed for node in system.nodes.values())
    assert box_tuples == 200 + 160 + 160
    assert system.outputs["sums"]  # the window emitted, flush included
    assert system.sim.events_processed == 2 * box_tuples
