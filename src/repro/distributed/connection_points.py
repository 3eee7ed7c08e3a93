"""Handling connection points under load sharing (Section 5.2).

"Naively, splitting a connection point could involve copying a lot of
data.  Depending on the expected usage, this might be a good
investment.  In particular, if it is expected that many users will
attach ad hoc queries to this connection point, then splitting it and
moving a replica to a different machine may be a sensible load sharing
strategy.  On the other hand, it might make sense to leave the
connection point intact ... the data access to the second box would be
remote."

Two mechanisms plus the decision rule:

* :func:`split_connection_point` replicates a connection point's
  history to another node (one bulk copy) and keeps the replica fresh
  (one forwarded message per subsequent tuple);
* :func:`read_history_from` serves an ad-hoc reader on a given node —
  locally from a replica when one exists, otherwise as a remote fetch;
* :func:`replication_pays_off` is the paper's tradeoff in closed form.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.query import ConnectionPoint
from repro.core.tuples import StreamTuple
from repro.network.overlay import Message
from repro.network.transport import MESSAGE_HEADER_BYTES, TUPLE_BYTES

if TYPE_CHECKING:  # pragma: no cover
    from repro.distributed.system import AuroraStarSystem

REPLICATION_HORIZON = 10.0  # seconds in which a replica must pay for itself


class ConnectionPointError(RuntimeError):
    """Raised for invalid connection-point operations."""


class ConnectionPointReplica:
    """A remote copy of a connection point's history, kept fresh."""

    def __init__(self, arc_id: str, node: str, retention: int):
        self.arc_id = arc_id
        self.node = node
        self.store = ConnectionPoint(retention=retention)
        self.updates_received = 0

    def apply_update(self, tuples: list[StreamTuple]) -> None:
        for tup in tuples:
            self.store.record(tup)
        self.updates_received += len(tuples)


def _find_connection_point(system: "AuroraStarSystem", arc_id: str) -> ConnectionPoint:
    arc = system.network.arcs.get(arc_id)
    if arc is None:
        raise ConnectionPointError(f"unknown arc {arc_id!r}")
    if arc.connection_point is None:
        raise ConnectionPointError(f"arc {arc_id!r} has no connection point")
    return arc.connection_point


def _host_node(system: "AuroraStarSystem", arc_id: str) -> str:
    """The node where a connection point physically lives: its arc's
    consumer's node (or the producer's for output arcs)."""
    arc = system.network.arcs[arc_id]
    kind, ref = arc.target
    if kind != "out":
        return system.place(str(kind))
    kind, ref = arc.source
    if kind != "in":
        return system.place(str(kind))
    raise ConnectionPointError(f"arc {arc_id!r} connects inputs to outputs directly")


def split_connection_point(
    system: "AuroraStarSystem", arc_id: str, to_node: str
) -> ConnectionPointReplica:
    """Replicate a connection point onto ``to_node``.

    The retained history crosses the overlay once (the paper's
    "copying a lot of data"); afterwards every tuple recorded at the
    original is forwarded to the replica (one message each).
    """
    cp = _find_connection_point(system, arc_id)
    if to_node not in system.nodes:
        raise ConnectionPointError(f"unknown node {to_node!r}")
    home = _host_node(system, arc_id)
    if to_node == home:
        raise ConnectionPointError(
            f"connection point of {arc_id!r} already lives on {to_node!r}"
        )
    replicas = getattr(system, "cp_replicas", None)
    if replicas is None:
        replicas = {}
        system.cp_replicas = replicas
    key = (arc_id, to_node)
    if key in replicas:
        raise ConnectionPointError(f"replica of {arc_id!r} already on {to_node!r}")
    replica = ConnectionPointReplica(arc_id, to_node, retention=cp.retention)

    # Bulk copy of the existing history.
    history = cp.read_history()
    size = MESSAGE_HEADER_BYTES + len(history) * TUPLE_BYTES
    system.overlay.send(home, to_node, Message("cp_copy", {"arc": arc_id}, size=size))
    replica.apply_update(history)

    # Keep it fresh: forward every subsequently recorded tuple.
    def forward(tuples: list[StreamTuple]) -> None:
        update_size = MESSAGE_HEADER_BYTES + len(tuples) * TUPLE_BYTES
        system.overlay.send(
            home, to_node, Message("cp_update", {"arc": arc_id}, size=update_size)
        )
        replica.apply_update(tuples)

    cp.subscribe(forward)
    replicas[key] = replica
    # Both message kinds are pure data transfers; nodes only count them.
    system.nodes[to_node].overlay_node.on("cp_copy", lambda m: None)
    system.nodes[to_node].overlay_node.on("cp_update", lambda m: None)
    return replica


def read_history_from(
    system: "AuroraStarSystem", arc_id: str, reader_node: str
) -> tuple[list[StreamTuple], int]:
    """Serve an ad-hoc history read issued from ``reader_node``.

    Returns (history, overlay_messages_used): 0 when a local replica
    (or the original) is on the reader's node, 2 (request + response)
    for a remote access.
    """
    cp = _find_connection_point(system, arc_id)
    home = _host_node(system, arc_id)
    if reader_node == home:
        return cp.read_history(), 0
    replica = getattr(system, "cp_replicas", {}).get((arc_id, reader_node))
    if replica is not None:
        return replica.store.read_history(), 0
    # Remote access: request + bulk response.
    if reader_node not in system.nodes:
        raise ConnectionPointError(f"unknown node {reader_node!r}")
    history = cp.read_history()
    request = Message("cp_read", {"arc": arc_id}, size=MESSAGE_HEADER_BYTES)
    system.nodes[home].overlay_node.on("cp_read", lambda m: None)
    system.nodes[reader_node].overlay_node.on("cp_data", lambda m: None)
    system.overlay.send(reader_node, home, request)
    response_size = MESSAGE_HEADER_BYTES + len(history) * TUPLE_BYTES
    system.overlay.send(
        home, reader_node, Message("cp_data", {"arc": arc_id}, size=response_size)
    )
    return history, 2


def replication_pays_off(
    adhoc_reads_per_second: float,
    history_size: int,
    update_rate: float,
    tuple_bytes: int,
) -> bool:
    """The paper's investment decision, in bytes over
    :data:`REPLICATION_HORIZON` seconds.

    Splitting costs one bulk copy (history) plus continuous updates
    (update_rate tuples/s); leaving it intact costs each ad-hoc read a
    remote fetch of the full history.  Replicate when the read traffic
    saved exceeds the replication traffic spent.
    """
    replicate_cost = (
        history_size * tuple_bytes + update_rate * REPLICATION_HORIZON * tuple_bytes
    )
    remote_cost = adhoc_reads_per_second * REPLICATION_HORIZON * history_size * tuple_bytes
    return remote_cost > replicate_cost
