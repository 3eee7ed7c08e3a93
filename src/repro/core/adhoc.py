"""Ad-hoc queries over connection-point history (Section 2.2).

"Ad hoc queries can also be defined and attached to connection points:
predetermined arcs in the flow graph where historical data is stored."

An ad-hoc query is a one-shot query network evaluated over the tuples a
connection point has retained; it can also stay *attached*, continuing
to receive the live stream after draining the history.

Superbox fusion (:mod:`repro.core.fusion`) never needs to be dissolved
before an ad-hoc attach: arcs carrying a connection point are fusion
barriers, so an attachable arc is by construction never interior to a
fused chain and its history/live feed always sees real arc traffic.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.query import ConnectionPoint, QueryNetwork, execute
from repro.core.tuples import StreamTuple

HISTORY_INPUT = "history"  # the input an attached query reads history from


class AdHocError(RuntimeError):
    """Raised for invalid ad-hoc attachments."""


def run_adhoc(
    network: QueryNetwork,
    arc_id: str,
    query: QueryNetwork,
    input_name: str = HISTORY_INPUT,
) -> dict[str, list[StreamTuple]]:
    """Evaluate ``query`` once over a connection point's history.

    Args:
        network: the running network owning the connection point.
        arc_id: the arc whose connection point supplies the history.
        query: a standalone query network with one input ``input_name``.

    Returns the ad-hoc query's outputs.  The running network is not
    disturbed; the history is read, not consumed.
    """
    arc = network.arcs.get(arc_id)
    if arc is None:
        raise AdHocError(f"unknown arc {arc_id!r}")
    if arc.connection_point is None:
        raise AdHocError(
            f"arc {arc_id!r} has no connection point; ad-hoc queries may "
            "only attach at connection points"
        )
    if input_name not in query.inputs:
        raise AdHocError(f"ad-hoc query has no input {input_name!r}")
    history = arc.connection_point.read_history()
    return execute(query, {input_name: history})


class AttachedQuery:
    """A continuous ad-hoc query: history first, then the live stream.

    Attach with :func:`attach_adhoc`.  The query reads from its input
    :data:`HISTORY_INPUT`; tuples that cross the connection point after
    attachment reach :meth:`feed` through the connection point's
    subscription (``live=True``) or from whoever pushes them.
    """

    def __init__(self, query: QueryNetwork):
        query.validate()
        if HISTORY_INPUT not in query.inputs:
            raise AdHocError(f"ad-hoc query has no input {HISTORY_INPUT!r}")
        self.query = query
        self.outputs: dict[str, list[StreamTuple]] = {
            name: [] for name in query.outputs
        }
        self.tuples_seen = 0

    def feed(self, tuples: Iterable[StreamTuple]) -> None:
        """Push live tuples through the attached query."""
        batch = list(tuples)
        if not batch:
            return
        self.tuples_seen += len(batch)
        results = execute(self.query, {HISTORY_INPUT: batch}, flush=False)
        for name, emitted in results.items():
            self.outputs[name].extend(emitted)

    def finish(self) -> dict[str, list[StreamTuple]]:
        """Flush windowed state and return all outputs."""
        results = execute(self.query, {HISTORY_INPUT: []}, flush=True)
        for name, emitted in results.items():
            self.outputs[name].extend(emitted)
        return self.outputs


def attach_adhoc(
    connection_point: ConnectionPoint,
    query: QueryNetwork,
    live: bool = True,
) -> AttachedQuery:
    """Create an attached query seeded with the retained history.

    With ``live=True`` (default) the query also subscribes to the
    connection point, receiving every subsequent tuple automatically;
    call :func:`detach_adhoc` to stop.
    """
    attached = AttachedQuery(query)
    attached.feed(connection_point.read_history())
    if live:
        connection_point.subscribe(attached.feed)
    return attached


def detach_adhoc(connection_point: ConnectionPoint, attached: AttachedQuery) -> None:
    """Stop a live attached query's subscription."""
    connection_point.unsubscribe(attached.feed)
