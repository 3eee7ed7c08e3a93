"""Tests for repartitioning policies (Section 5.2)."""

import pytest

from repro.core.operators.map import Map
from repro.core.query import QueryNetwork
from repro.core.tuples import StreamTuple, make_stream
from repro.distributed.policy import (
    Thresholds,
    attribute_threshold_predicate,
    bandwidth_delta,
    box_input_rate,
    choose_offload_candidate,
    cpu_relief,
    hash_fraction_predicate,
    hottest_box,
)
from repro.distributed.system import AuroraStarSystem
from repro.network.transport import TUPLE_BYTES


def chain_system(costs=(0.001, 0.001, 0.001)):
    net = QueryNetwork()
    net.add_box("a", Map(lambda v: v, cost_per_tuple=costs[0]))
    net.add_box("b", Map(lambda v: v, cost_per_tuple=costs[1]))
    net.add_box("c", Map(lambda v: v, cost_per_tuple=costs[2]))
    net.connect("in:src", "a")
    net.connect("a", "b")
    net.connect("b", "c")
    net.connect("c", "out:sink")
    system = AuroraStarSystem(net)
    system.add_node("n1")
    system.add_node("n2")
    return system


def warm_up(system, n=100):
    system.schedule_source(
        "src", make_stream([{"A": i} for i in range(n)], spacing=0.001)
    )
    system.run()


class TestThresholds:
    def test_validation(self):
        with pytest.raises(ValueError):
            Thresholds(high_water=0.5, low_water=0.8)
        with pytest.raises(ValueError):
            Thresholds(cooldown=-1)

    def test_defaults_sane(self):
        t = Thresholds()
        assert t.low_water < t.high_water


class TestLoadSignals:
    def test_box_input_rate(self):
        system = chain_system()
        system.deploy_all_on("n1")
        warm_up(system, n=100)
        rate = box_input_rate(system, "a")
        assert rate == pytest.approx(100 / system.sim.now, rel=0.01)

    def test_cpu_relief_scales_with_cost(self):
        system = chain_system(costs=(0.001, 0.01, 0.001))
        system.deploy_all_on("n1")
        warm_up(system)
        assert cpu_relief(system, "b") > cpu_relief(system, "a")

    def test_hottest_box(self):
        system = chain_system(costs=(0.001, 0.02, 0.001))
        system.deploy_all_on("n1")
        warm_up(system)
        assert hottest_box(system, "n1") == "b"
        assert hottest_box(system, "n2") is None


class TestBandwidthDelta:
    def test_moving_middle_box_adds_two_crossings(self):
        system = chain_system()
        system.deploy_all_on("n1")
        warm_up(system)
        delta = bandwidth_delta(system, "b", "n2")
        rate = box_input_rate(system, "b")
        # Both b's input arc and output arc start crossing the overlay.
        assert delta == pytest.approx(2 * rate * TUPLE_BYTES, rel=0.05)

    def test_moving_box_toward_consumer_saves_bandwidth(self):
        system = chain_system()
        system.deploy({"a": "n1", "b": "n1", "c": "n2"})
        warm_up(system)
        # Moving b to n2: b->c stops crossing, a->b starts: net ~0.
        # Moving c back to n1 would *save* a crossing.
        delta_c_home = bandwidth_delta(system, "c", "n1")
        assert delta_c_home < 0

    def test_ingress_bound_input_counts(self):
        system = chain_system()
        system.deploy_all_on("n1")
        system.bind_input("src", "n1")
        warm_up(system)
        delta = bandwidth_delta(system, "a", "n2")
        rate = box_input_rate(system, "a")
        # Moving "a" away from the ingress adds the source crossing too.
        assert delta == pytest.approx(2 * rate * TUPLE_BYTES, rel=0.05)


class TestChooseOffloadCandidate:
    def test_prefers_expensive_box(self):
        system = chain_system(costs=(0.001, 0.02, 0.001))
        system.deploy_all_on("n1")
        warm_up(system)
        assert choose_offload_candidate(system, "n1", "n2") == "b"

    def test_bandwidth_headroom_excludes_heavy_arcs(self):
        system = chain_system(costs=(0.001, 0.02, 0.001))
        system.deploy_all_on("n1")
        warm_up(system)
        candidate = choose_offload_candidate(
            system, "n1", "n2", bandwidth_headroom=0.0
        )
        # Every move adds bandwidth here, so nothing qualifies.
        assert candidate is None

    def test_no_candidate_on_empty_node(self):
        system = chain_system()
        system.deploy_all_on("n1")
        warm_up(system)
        assert choose_offload_candidate(system, "n2", "n1") is None

    def test_migrating_box_excluded(self):
        system = chain_system(costs=(0.001, 0.02, 0.001))
        system.deploy_all_on("n1")
        warm_up(system)
        system.migrating.add("b")
        assert choose_offload_candidate(system, "n1", "n2") != "b"


class TestSplitPredicates:
    def test_hash_fraction_partitions_key_space(self):
        predicate = hash_fraction_predicate(0.5, ("A",))
        sent_true = sum(
            1 for i in range(1000) if predicate(StreamTuple({"A": i}))
        )
        assert 380 < sent_true < 620

    def test_hash_fraction_keeps_groups_together(self):
        predicate = hash_fraction_predicate(0.5, ("A",))
        for a in range(50):
            outcomes = {
                predicate(StreamTuple({"A": a, "B": b})) for b in range(10)
            }
            assert len(outcomes) == 1  # same group -> same side, always

    def test_hash_fraction_validation(self):
        with pytest.raises(ValueError):
            hash_fraction_predicate(0.0, ("A",))
        with pytest.raises(ValueError):
            hash_fraction_predicate(0.5, ())

    def test_attribute_threshold(self):
        predicate = attribute_threshold_predicate("B", 3)
        assert predicate(StreamTuple({"B": 2}))
        assert not predicate(StreamTuple({"B": 3}))
