"""Superbox fusion in an Aurora* deployment (opt-in overlay).

Fused chains never cross node boundaries or migrating boxes, dissolve
transparently before run-time rewrites (box sliding and splitting), and
never change delivered outputs or per-box logical statistics.
"""

import pytest

from repro.core.operators.filter import Filter
from repro.core.operators.map import Map
from repro.core.query import QueryNetwork
from repro.core.tuples import make_stream
from repro.distributed.sliding import slide_box
from repro.distributed.splitting import split_box_distributed
from repro.distributed.system import AuroraStarSystem


def chain_network(n_stages=4):
    """in:src -> c0 -> c1 -> ... -> out:sink, all fusable."""
    net = QueryNetwork()
    prev = "in:src"
    for i in range(n_stages):
        box_id = f"c{i}"
        if i % 2 == 0:
            net.add_box(box_id, Filter(lambda t: t["A"] % 5 != 0))
        else:
            net.add_box(box_id, Map(lambda v: {"A": v["A"] + 1}))
        net.connect(prev, box_id)
        prev = box_id
    net.connect(prev, "out:sink")
    return net


def deploy(placement, fusion, n_nodes=2):
    system = AuroraStarSystem(chain_network())
    for i in range(n_nodes):
        system.add_node(f"n{i + 1}")
    system.deploy(placement)
    if fusion:
        system.enable_fusion()
    return system


ALL_ON_N1 = {f"c{i}": "n1" for i in range(4)}
SPLIT_PLACEMENT = {"c0": "n1", "c1": "n1", "c2": "n2", "c3": "n2"}


def drive(system, n=50):
    system.schedule_source(
        "src", make_stream([{"A": i} for i in range(n)], spacing=0.002)
    )
    system.run()
    return [t["A"] for t in system.outputs["sink"]]


class TestFusionPlacement:
    def test_runs_respect_node_boundaries(self):
        system = deploy(SPLIT_PLACEMENT, fusion=True)
        assert sorted(system.fused_runs()) == [["c0", "c1"], ["c2", "c3"]]

    def test_single_node_fuses_whole_chain(self):
        system = deploy(ALL_ON_N1, fusion=True)
        assert system.fused_runs() == [["c0", "c1", "c2", "c3"]]

    def test_fusion_is_opt_in(self):
        system = deploy(ALL_ON_N1, fusion=False)
        assert system.fused_runs() == []

    def test_disable_fusion_drops_chains(self):
        system = deploy(ALL_ON_N1, fusion=True)
        system.disable_fusion()
        assert system.fused_runs() == []


class TestFusionEquivalence:
    def test_outputs_and_stats_match_unfused(self):
        for placement in (ALL_ON_N1, SPLIT_PLACEMENT):
            plain = deploy(dict(placement), fusion=False)
            fused = deploy(dict(placement), fusion=True)
            assert drive(plain) == drive(fused)
            for box_id in plain.network.boxes:
                a = plain.network.boxes[box_id]
                b = fused.network.boxes[box_id]
                assert (a.tuples_in, a.tuples_out) == (b.tuples_in, b.tuples_out), box_id

    def test_box_busy_time_sums_to_node_busy_time(self):
        # The load-share daemon reads per-box busy time: every second a
        # node was busy — scheduling overhead included — is some box's.
        for fusion in (False, True):
            system = deploy(ALL_ON_N1, fusion=fusion)
            drive(system)
            node = system.nodes["n1"]
            boxes = system.network.boxes.values()
            assert node.busy_time > 0
            assert sum(b.busy_time for b in boxes) == pytest.approx(node.busy_time)
            assert all(b.busy_time > 0 and b.latency_count > 0 for b in boxes)

    def test_interior_arcs_carry_no_traffic(self):
        system = deploy(ALL_ON_N1, fusion=True)
        drive(system)
        chain = system.fused_chain("c0")
        for arc in chain.interior_arcs():
            assert not arc.queue


class TestFusionUnderSlide:
    def test_slide_defuses_and_refuses(self):
        system = deploy(ALL_ON_N1, fusion=True)
        assert system.fused_runs() == [["c0", "c1", "c2", "c3"]]
        system.schedule_source(
            "src", make_stream([{"A": i} for i in range(50)], spacing=0.002)
        )
        # Slide c3 away mid-stream: its chain must dissolve first, then
        # the pass re-forms the runs the new placement allows.
        system.sim.schedule(0.04, slide_box, system, "c3", "n2")
        system.run()
        assert system.place("c3") == "n2"
        assert system.fused_runs() == [["c0", "c1", "c2"]]
        expected = [
            i + 2 for i in range(50) if i % 5 != 0 and (i + 1) % 5 != 0
        ]
        assert sorted(t["A"] for t in system.outputs["sink"]) == expected

    def test_slide_interior_member_splits_run(self):
        system = deploy(ALL_ON_N1, fusion=True)
        slide_box(system, "c1", "n2")
        system.run()
        # c1 now lives alone on n2: only c2-c3 can re-fuse.
        assert system.fused_runs() == [["c2", "c3"]]


class TestFusionUnderSplit:
    def test_split_defuses_the_target_chain(self):
        system = deploy(ALL_ON_N1, fusion=True)
        system.schedule_source(
            "src", make_stream([{"A": i} for i in range(40)], spacing=0.002)
        )

        def do_split():
            split_box_distributed(
                system, "c2", lambda t: t["A"] % 2 == 0, to_node="n2",
                predicate_name="even",
            )

        system.sim.schedule(0.03, do_split)
        system.run()
        # The original run dissolved; no surviving run contains c2, and
        # every compiled run is same-node and still valid.
        for run in system.fused_runs():
            assert "c2" not in run
            nodes = {system.place(b) for b in run}
            assert len(nodes) == 1
        # Transparency: the split network delivers exactly what an
        # unsplit, unfused deployment would.
        plain = deploy(ALL_ON_N1, fusion=False)
        expected = sorted(drive(plain, n=40))
        assert sorted(t["A"] for t in system.outputs["sink"]) == expected
