"""A node's owed wake-up is the scheduled one, minus the event.

When the ``_work`` event that :meth:`AuroraNode.kick` would schedule is
provably the next event to fire, the node runs it when the handler that
made it due returns (``AuroraNode._wake``, ``AuroraStarSystem._handle``).
These tests run generated deployments twice, once as built and once
with ``_wake`` monkeypatched to ``kick`` (every wake-up an event), and
hold the two runs equal on everything a run reports, float for float.
Arrivals sit on a coarse time grid so that they tie with each other
and with train completions, which is where the same-instant fallback
(schedule, as before) has to take over.
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
from repro.distributed.node import AuroraNode
from repro.distributed.system import AuroraStarSystem

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
    return boxes, nodes, placement, arrivals, ingress, echo


def build(spec) -> AuroraStarSystem:
    boxes, nodes, placement, arrivals, ingress, echo = spec
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
    return system


def run(spec, scheduled: bool):
    """(everything the run reports, events, direct wake-ups, fallbacks).

    ``scheduled`` replaces the continuation with ``kick``: the wake-up
    is always an event, as before the continuation existed."""
    branches = {"direct": 0, "fallback": 0}
    wake = AuroraNode._wake

    def counted(node):
        system = node.system
        due = (system._woken is not None and not node._work_scheduled
               and not node.failed and node.busy_until <= system.sim.now)
        owed = len(system._woken or ())
        wake(node)
        if due:
            branches["direct" if len(system._woken) > owed else "fallback"] += 1

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AuroraNode, "_wake", AuroraNode.kick if scheduled else counted)
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
    return report, system.sim.events_processed, branches["direct"], branches["fallback"]


def check_exact(spec) -> tuple[int, int]:
    report, events, direct, fallback = run(spec, scheduled=False)
    want, want_events, _, _ = run(spec, scheduled=True)
    assert report == want
    # Each direct wake-up is exactly one event fewer (so strictly fewer
    # events whenever a node went idle), and nothing else moves.
    assert want_events - events == direct
    return direct, fallback


@settings(max_examples=60, deadline=None)
@given(deployments())
def test_owed_wake_up_is_exact(spec):
    check_exact(spec)


@pytest.mark.parametrize("branch", ["direct", "fallback"])
def test_corpus_takes_both_branches(branch):
    """Non-vacuity: the generator reaches deployments that run a wake-up
    directly and ones where a same-instant event forces the schedule."""
    index = 0 if branch == "direct" else 1
    spec = find(deployments(), lambda s: run(s, scheduled=False)[2 + index] > 0,
                settings=settings(max_examples=200, database=None, deadline=None))
    assert check_exact(spec)[index] > 0


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
