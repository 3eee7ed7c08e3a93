"""Unit tests for the elasticity controller (``repro.core.elasticity``).

Deterministic, single-mechanism coverage that complements the seeded
property sweep (``test_elasticity_property.py``): ring movement bounds
and slot->port consistency, eligibility refusals, skeleton wiring and
teardown, exact window migration, skew classification, the system
plane's two-phase rollback, staged retire, and crash-repair accounting.
"""

import pytest

from repro.core.elasticity import (
    ElasticityController,
    ElasticityError,
    ElasticityPolicy,
    EnginePlane,
    PartitionRing,
    SystemPlane,
    resolve_partition_fields,
)
from repro.core.engine import AuroraEngine
from repro.core.operators.filter import Filter
from repro.core.operators.map import Map
from repro.core.operators.tumble import Tumble
from repro.core.operators.union import Union
from repro.core.query import QueryNetwork
from repro.core.tuples import StreamTuple
from repro.distributed.system import AuroraStarSystem


def keyed_net(op=None):
    """in:src -> E -> out:sink with a keyed elastic candidate."""
    net = QueryNetwork()
    net.add_box("E", op or Map(lambda v: dict(v), cost_per_tuple=0.002))
    net.connect("in:src", "E")
    net.connect("E", "out:sink")
    return net


def count_tumble(window=3):
    return Tumble(
        "cnt", groupby=("k",), value_attr="v", mode="count",
        window_size=window, cost_per_tuple=0.002,
    )


def engine_controller(net, policy=None, fields=("k",)):
    engine = AuroraEngine(net, load_window=0.05)
    policy = policy or ElasticityPolicy(
        high_water=0.5, low_water=0.2, cooldown=0.0, max_replicas=4
    )
    controller = ElasticityController(
        EnginePlane(engine), policy, metrics=engine.metrics,
    )
    controller.watch("E", fields)
    return engine, controller


class TestPartitionRing:
    def test_add_moves_only_keys_owned_by_new_slot(self):
        ring = PartitionRing(("k",))
        ring.add()
        ring.add()
        keys = [(f"key{i}",) for i in range(500)]
        before = {k: ring.owner_port(k) for k in keys}
        new_port = ring.add()
        moved = {k for k in keys if ring.owner_port(k) != before[k]}
        # Bounded movement: every key that moved landed on the new slot.
        assert all(ring.owner_port(k) == new_port for k in moved)
        assert 0 < len(moved) < len(keys)

    def test_remove_moves_only_keys_owned_by_removed_slot(self):
        ring = PartitionRing(("k",))
        for _ in range(3):
            ring.add()
        keys = [(f"key{i}",) for i in range(500)]
        before = {k: ring.owner_port(k) for k in keys}
        ring.remove(2)
        moved = {k for k in keys if ring.owner_port(k) != before[k]}
        assert all(before[k] == 2 for k in moved)

    def test_ports_stable_across_middle_removal_until_compaction(self):
        # The repair protocol depends on this: remove() must NOT shift
        # surviving slots' ports — only compact_ports() (called at the
        # deferred detach) does.
        ring = PartitionRing(("k",))
        for _ in range(3):
            ring.add()
        assert ring.ports == {"s0": 0, "s1": 1, "s2": 2}
        ring.remove(1)
        assert ring.ports == {"s0": 0, "s2": 2}
        keys = [(f"key{i}",) for i in range(200)]
        assert {ring.owner_port(k) for k in keys} <= {0, 2}
        ring.compact_ports(1)
        assert ring.ports == {"s0": 0, "s2": 1}

    def test_slot_names_never_reused(self):
        ring = PartitionRing(("k",))
        ring.add()
        ring.add()
        ring.remove(1)
        assert ring.slot_name(ring.add()) == "s2"

    def test_cannot_remove_last_slot(self):
        ring = PartitionRing(("k",))
        ring.add()
        with pytest.raises(ElasticityError):
            ring.remove(0)

    def test_route_matches_owner_port(self):
        ring = PartitionRing(("k",))
        ring.add()
        ring.add()
        port, slot = ring.route({"k": "a", "v": 1})
        assert port == ring.ports[slot] == ring.owner_port(("a",))


class TestEligibility:
    def test_stateless_requires_explicit_fields(self):
        with pytest.raises(ElasticityError, match="explicit partition fields"):
            resolve_partition_fields(Map(lambda v: v), None)

    def test_run_mode_tumble_refused(self):
        op = Tumble("cnt", groupby=("k",), value_attr="v", mode="run")
        with pytest.raises(ElasticityError, match="run-mode"):
            resolve_partition_fields(op, None)

    def test_timeout_tumble_refused(self):
        op = Tumble(
            "cnt", groupby=("k",), value_attr="v", mode="count",
            window_size=3, timeout=5.0,
        )
        with pytest.raises(ElasticityError, match="time out"):
            resolve_partition_fields(op, None)

    def test_fields_outside_groupby_refused(self):
        with pytest.raises(ElasticityError, match="group stability"):
            resolve_partition_fields(count_tumble(), ("other",))

    def test_tumble_defaults_to_groupby_fields(self):
        fields, stateful = resolve_partition_fields(count_tumble(), None)
        assert fields == ("k",) and stateful

    def test_multi_port_operator_refused(self):
        with pytest.raises(ElasticityError, match="single-input/single-output"):
            resolve_partition_fields(Union(2), ("k",))

    def test_plane_refusing_stateful(self):
        with pytest.raises(ElasticityError, match="stateless"):
            resolve_partition_fields(count_tumble(), None, allow_stateful=False)

    def test_duplicate_watch_refused(self):
        _, controller = engine_controller(keyed_net())
        with pytest.raises(ElasticityError, match="already watching"):
            controller.watch("E", ("k",))

    def test_unknown_box_refused(self):
        _, controller = engine_controller(keyed_net())
        with pytest.raises(ElasticityError, match="unknown box"):
            controller.watch("ghost", ("k",))

    def test_system_plane_refuses_stateful(self):
        net = keyed_net(count_tumble())
        system = AuroraStarSystem(net)
        system.add_node("n0")
        system.add_node("n1")
        system.deploy({"E": "n0"})
        controller = ElasticityController(
            SystemPlane(system, nodes=["n1"]),
            ElasticityPolicy(high_water=0.5, low_water=0.2),
            metrics=system.metrics,
        )
        with pytest.raises(ElasticityError, match="stateless"):
            controller.watch("E")


class TestSkeletonStructure:
    def test_split_wires_router_replica_union(self):
        engine, controller = engine_controller(keyed_net())
        group = controller.groups["E"]
        controller.plane.split(group, controller)
        net = engine.network
        assert group.replicas == ["E", "E__r1"]
        router = net.boxes["E__part"]
        union = net.boxes["E__gather"]
        assert router.operator.n_outputs == 2 and union.operator.arity == 2
        # Input flows in:src -> router; box output hangs off the union.
        assert net.inputs["src"][0].target == ("E__part", 0)
        assert net.boxes["E"].input_arcs[0].source == ("E__part", 0)
        assert net.boxes["E__r1"].output_arcs[0][0].target == ("E__gather", 1)
        assert union.output_arcs[0][0].target == ("out", "sink")

    def test_merge_restores_original_wiring(self):
        engine, controller = engine_controller(keyed_net())
        group = controller.groups["E"]
        for tup in [StreamTuple({"k": f"k{i}", "v": i}, timestamp=i * 0.01) for i in range(40)]:
            engine.push("src", tup)
        controller.plane.split(group, controller)
        engine.run_until_idle()
        controller.plane.scale_in(group, controller)
        net = engine.network
        assert set(net.boxes) == {"E"}
        assert net.inputs["src"][0].target == ("E", 0)
        assert net.boxes["E"].output_arcs[0][0].target == ("out", "sink")
        assert not group.split

    def test_replica_ids_monotonic_across_cycles(self):
        engine, controller = engine_controller(keyed_net())
        group = controller.groups["E"]
        controller.plane.split(group, controller)
        controller.plane.scale_in(group, controller)
        controller.plane.split(group, controller)
        assert group.replicas == ["E", "E__r2"]

    def test_queued_tuples_reroute_through_split_and_merge(self):
        engine, controller = engine_controller(keyed_net())
        group = controller.groups["E"]
        for i in range(30):
            engine.push("src", StreamTuple({"k": f"k{i % 7}", "v": i}, timestamp=i * 0.001))
        controller.plane.split(group, controller)
        engine.run_until_idle()
        controller.plane.scale_in(group, controller)
        engine.run_until_idle()
        engine.flush()
        assert len(engine.outputs["sink"]) == 30


class TestWindowMigration:
    def test_windows_move_to_ring_owner_exactly(self):
        engine, controller = engine_controller(keyed_net(count_tumble(7)), fields=None)
        group = controller.groups["E"]
        for i in range(40):
            engine.push("src", StreamTuple({"k": f"k{i % 8}", "v": i}, timestamp=i * 0.001))
        engine.run_until_idle()
        open_before = dict(engine.network.boxes["E"].operator._windows)
        assert open_before  # partial windows exist mid-stream
        controller.plane.split(group, controller)
        ring = group.ring
        merged = {}
        for port, rid in enumerate(group.replicas):
            windows = engine.network.boxes[rid].operator._windows
            for key, entry in windows.items():
                assert ring.owner_port((key[0],)) == port
                merged[key] = entry
        assert merged == open_before

    def test_split_stream_equals_reference_aggregates(self):
        net = keyed_net(count_tumble(3))
        engine, controller = engine_controller(net, fields=None)
        group = controller.groups["E"]
        tuples = [
            StreamTuple({"k": f"k{i % 5}", "v": i}, timestamp=i * 0.001)
            for i in range(60)
        ]
        for i, tup in enumerate(tuples):
            engine.push("src", StreamTuple(dict(tup.values), timestamp=tup.timestamp))
            if i == 20:
                controller.plane.split(group, controller)
            if i == 40:
                engine.run_until_idle()
                controller.plane.scale_out(group, controller)
            engine.step()
        engine.run_until_idle()
        controller.plane.scale_in(group, controller)
        controller.plane.scale_in(group, controller)
        engine.run_until_idle()
        engine.flush()
        ref_engine = AuroraEngine(keyed_net(count_tumble(3)))
        for tup in tuples:
            ref_engine.push("src", StreamTuple(dict(tup.values), timestamp=tup.timestamp))
        ref_engine.run_until_idle()
        ref_engine.flush()
        got = sorted(tuple(sorted(t.values.items())) for t in engine.outputs["sink"])
        want = sorted(tuple(sorted(t.values.items())) for t in ref_engine.outputs["sink"])
        assert got == want


class TestSkewClassification:
    def test_hot_slot_probe_classifies_resplit(self):
        engine, controller = engine_controller(
            keyed_net(),
            policy=ElasticityPolicy(
                high_water=0.5, low_water=0.2, cooldown=0.0,
                max_replicas=4, skew_factor=1.5,
            ),
        )
        group = controller.groups["E"]
        controller.plane.split(group, controller)
        router = engine.network.boxes["E__part"].operator
        controller._snapshot_routing(group)
        # One slot takes 90% of the routed delta -> skewed.
        s0, s1 = group.ring.slot_name(0), group.ring.slot_name(1)
        router.routed[s0] = router.routed.get(s0, 0) + 90
        router.routed[s1] = router.routed.get(s1, 0) + 10
        assert controller._skewed(group)
        # Balanced deltas -> not skewed.
        controller._snapshot_routing(group)
        router.routed[s0] += 50
        router.routed[s1] += 50
        assert not controller._skewed(group)

    def test_no_delta_is_not_skewed(self):
        engine, controller = engine_controller(keyed_net())
        group = controller.groups["E"]
        controller.plane.split(group, controller)
        controller._snapshot_routing(group)
        assert not controller._skewed(group)


def star_system(cost=0.002):
    net = keyed_net(Map(lambda v: dict(v), cost_per_tuple=cost))
    system = AuroraStarSystem(net)
    for name in ("n0", "n1", "n2"):
        system.add_node(name)
    system.deploy({"E": "n0"})
    system.bind_input("src", "n0")
    policy = ElasticityPolicy(
        high_water=0.5, low_water=0.2, cooldown=0.0, max_replicas=3,
        transfer_delay=0.1, settle_delay=0.1,
    )
    plane = SystemPlane(system, nodes=["n1", "n2"])
    controller = ElasticityController(plane, policy, metrics=system.metrics)
    controller.watch("E", ("k",))
    return system, controller


class TestTwoPhaseCommit:
    def test_crash_during_transfer_rolls_back(self):
        system, controller = star_system()
        group = controller.groups["E"]
        controller.plane.split(group, controller)  # prepare E__r1 on n1
        assert group.pending is not None and group.pending["kind"] == "add"
        system.nodes["n1"].fail()
        system.run(until=0.2)  # commit fires inside, sees the dead node
        assert group.pending is None
        assert group.replicas == ["E"]  # skeleton stays at k == 1
        assert "E__r1" not in system.network.boxes
        assert "E__r1" not in system.placement
        assert system.metrics.total("elasticity.rollbacks") == 1
        assert system.metrics.total("elasticity.tuples_lost") == 0

    def test_commit_flips_ring_after_transfer(self):
        system, controller = star_system()
        group = controller.groups["E"]
        controller.plane.split(group, controller)
        assert group.ring.size == 1  # prepare: port wired, ring untouched
        system.run(until=0.2)
        assert group.ring.size == 2 and group.pending is None
        assert system.placement["E__r1"] == "n1"

    def test_retire_loses_nothing(self):
        system, controller = star_system()
        group = controller.groups["E"]
        controller.plane.split(group, controller)
        system.run(until=0.2)
        for i in range(200):
            system.sim.schedule_at(
                0.2 + i * 0.001, system.push, "src",
                StreamTuple({"k": f"k{i % 11}", "v": i}),
            )
        system.run(until=0.6)
        controller.plane.scale_in(group, controller)
        system.run()
        controller.plane.merge(group, controller)
        system.flush()
        assert len(system.outputs["sink"]) == 200
        assert system.metrics.total("elasticity.tuples_lost") == 0

    def test_repair_declares_crash_loss(self):
        system, controller = star_system()
        group = controller.groups["E"]
        controller.plane.split(group, controller)
        system.run(until=0.2)
        for i in range(300):
            system.sim.schedule_at(
                0.2 + i * 0.001, system.push, "src",
                StreamTuple({"k": f"k{i % 11}", "v": i}),
            )
        system.sim.schedule_at(0.35, system.nodes["n1"].fail)

        def probe():
            controller.probe()
            if system.sim.now < 1.5:
                system.sim.schedule(0.05, probe)

        system.sim.schedule(0.25, probe)
        system.run(until=2.0)
        system.flush()
        assert system.metrics.total("elasticity.repairs") == 1
        declared = system.metrics.total("elasticity.tuples_lost")
        assert declared > 0
        assert len(system.outputs["sink"]) + declared >= 300
        assert "E__r1" not in system.network.boxes


class TestPolicyValidation:
    def test_band_must_be_ordered(self):
        with pytest.raises(ValueError):
            ElasticityPolicy(high_water=0.2, low_water=0.5)

    def test_skew_factor_must_exceed_one(self):
        with pytest.raises(ValueError):
            ElasticityPolicy(skew_factor=1.0)

    def test_max_replicas_floor(self):
        with pytest.raises(ValueError):
            ElasticityPolicy(max_replicas=1)
