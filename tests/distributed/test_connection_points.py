"""Tests for connection-point splitting and remote access (Section 5.2)."""

import pytest

from repro.core.operators.map import Map
from repro.core.query import QueryNetwork
from repro.core.tuples import make_stream
from repro.distributed.connection_points import (
    ConnectionPointError,
    read_history_from,
    replication_pays_off,
    split_connection_point,
)
from repro.distributed.system import AuroraStarSystem
from repro.network.transport import TUPLE_BYTES


def build_system():
    net = QueryNetwork()
    net.add_box("m", Map(lambda v: v))
    net.connect("in:src", "m", connection_point=True, arc_id="tap")
    net.connect("m", "out:live")
    system = AuroraStarSystem(net)
    system.add_node("home")
    system.add_node("remote")
    system.deploy_all_on("home")
    return system


def feed(system, n=10):
    system.schedule_source("src", make_stream([{"A": i} for i in range(n)], spacing=0.001))
    system.run()


class TestSplitConnectionPoint:
    def test_replica_gets_existing_history(self):
        system = build_system()
        feed(system, 10)
        replica = split_connection_point(system, "tap", "remote")
        system.run()
        assert [t["A"] for t in replica.store.read_history()] == list(range(10))

    def test_replica_stays_fresh(self):
        system = build_system()
        feed(system, 5)
        replica = split_connection_point(system, "tap", "remote")
        feed(system, 5)  # 5 more tuples after the split
        assert replica.updates_received >= 10
        assert len(replica.store.read_history()) == 10

    def test_bulk_copy_uses_the_link(self):
        system = build_system()
        feed(system, 20)
        split_connection_point(system, "tap", "remote")
        system.run()
        assert system.link_bytes("home", "remote") >= 20 * TUPLE_BYTES

    def test_validations(self):
        system = build_system()
        with pytest.raises(ConnectionPointError, match="unknown arc"):
            split_connection_point(system, "ghost", "remote")
        with pytest.raises(ConnectionPointError, match="unknown node"):
            split_connection_point(system, "tap", "ghost")
        with pytest.raises(ConnectionPointError, match="already lives"):
            split_connection_point(system, "tap", "home")
        split_connection_point(system, "tap", "remote")
        with pytest.raises(ConnectionPointError, match="already on"):
            split_connection_point(system, "tap", "remote")

    def test_arc_without_cp_rejected(self):
        system = build_system()
        live_arc = system.network.outputs["live"].id
        with pytest.raises(ConnectionPointError, match="no connection point"):
            split_connection_point(system, live_arc, "remote")


class TestReadHistoryFrom:
    def test_local_read_is_free(self):
        system = build_system()
        feed(system, 8)
        history, messages = read_history_from(system, "tap", "home")
        assert len(history) == 8
        assert messages == 0

    def test_remote_read_costs_two_messages(self):
        system = build_system()
        feed(system, 8)
        history, messages = read_history_from(system, "tap", "remote")
        assert len(history) == 8
        assert messages == 2
        system.run()
        assert system.link_bytes("home", "remote") > 0

    def test_replica_makes_remote_read_local(self):
        system = build_system()
        feed(system, 8)
        split_connection_point(system, "tap", "remote")
        history, messages = read_history_from(system, "tap", "remote")
        assert len(history) == 8
        assert messages == 0


class TestDecisionRule:
    def test_hot_adhoc_usage_favors_replication(self):
        assert replication_pays_off(
            adhoc_reads_per_second=5.0, history_size=1000,
            update_rate=10.0, tuple_bytes=100,
        )

    def test_cold_usage_favors_remote_access(self):
        assert not replication_pays_off(
            adhoc_reads_per_second=0.001, history_size=1000,
            update_rate=100.0, tuple_bytes=100,
        )

    def test_breakeven_scales_with_update_rate(self):
        # A hotter stream (more updates to forward) needs more readers
        # to justify replication.
        few_updates = replication_pays_off(0.2, 100, update_rate=1.0, tuple_bytes=100)
        many_updates = replication_pays_off(0.2, 100, update_rate=1000.0, tuple_bytes=100)
        assert few_updates and not many_updates
