"""Event routing (Section 4.2).

"Before producing events, a data source ... registers a new schema
definition and a new stream name with the system, which in turn assigns
a default location for events of the new type. ... When a data source
produces events, it labels them with a stream name and sends them to
one of the nodes in the overlay network.  Upon receiving these events,
the node consults the intra-participant catalog and forwards events to
the appropriate locations."
"""

from __future__ import annotations

from repro.core.tuples import StreamTuple
from repro.network.catalog import IntraParticipantCatalog
from repro.network.dht import stable_hash
from repro.network.overlay import Message, Overlay
from repro.network.transport import TUPLE_BYTES


class EventRouter:
    """Routes labeled events from sources to the nodes hosting their streams.

    Args:
        overlay: the overlay network carrying "tuples" messages.
        catalog: the intra-participant catalog holding stream locations.

    A stream partitioned across several nodes sends each event to the
    location its hashed values pick; every event message is
    :data:`~repro.network.transport.TUPLE_BYTES` long.
    """

    def __init__(self, overlay: Overlay, catalog: IntraParticipantCatalog):
        self.overlay = overlay
        self.catalog = catalog
        self.events_routed = 0
        self.events_forwarded = 0

    def register_stream(self, stream: str, schema_name: str, default_node: str) -> None:
        """Register a new stream and assign its default location."""
        self.catalog.define("stream", stream, schema_name)
        self.catalog.set_stream_location(stream, [default_node])

    def route(self, entry_node: str, stream: str, tup: StreamTuple) -> str:
        """Deliver one labeled event.

        The source hands the event to ``entry_node``; that node consults
        the catalog and forwards to the stream's current location
        (a second overlay hop only when the entry node is not already
        the target — events arriving at the right node stay local).
        Returns the node that received the event.
        """
        locations = self.catalog.stream_location(stream).nodes
        key = f"{stream}:{sorted(tup.values.items())!r}"
        target = locations[stable_hash(key) % len(locations)]
        self.events_routed += 1
        if entry_node != target:
            message = Message("tuples", {"stream": stream, "tuples": [tup]}, size=TUPLE_BYTES)
            self.overlay.send(entry_node, target, message)
            self.events_forwarded += 1
        else:
            # Local delivery: hand to the node's handler directly.
            message = Message("tuples", {"stream": stream, "tuples": [tup]}, size=TUPLE_BYTES)
            message.src = entry_node
            message.dst = target
            self.overlay.node(target).deliver(message)
        return target

    def move_stream(self, stream: str, new_nodes: list[str]) -> None:
        """Load sharing moved or partitioned the stream; update the catalog.

        "The location information is always propagated to the
        intra-participant catalog."
        """
        self.catalog.set_stream_location(stream, new_nodes)
