"""Intra- and inter-participant catalogs (Sections 4.1, 4.2).

"Within a participant, the catalog contains definitions of operators,
schemas, streams, queries, and contracts.  For streams, the catalog
also holds (possibly stale) information on the physical locations where
events are being made available ... For queries, the catalog holds
information on the content and location of each running piece of the
query.  All nodes owned by a participant have access to the complete
intra-participant catalog."

"For participants to collaborate ... some information must be made
globally available.  This information is stored in an inter-participant
catalog ... implemented using a distributed hash table with entity
names as unique keys."
"""

from __future__ import annotations

from typing import Any

from repro.network.dht import ChordRing
from repro.network.naming import EntityName


class StreamLocation:
    """Where a stream's events are physically available.

    A stream may be partitioned across several nodes for load balancing;
    ``nodes`` lists every location.  ``version`` increases each time the
    placement changes, which lets readers detect staleness (the paper
    allows catalog information to be "possibly stale").
    """

    def __init__(self, nodes: list[str], version: int = 0):
        if not nodes:
            raise ValueError("a stream must be available on at least one node")
        self.nodes = list(nodes)
        self.version = version

    def moved(self, nodes: list[str]) -> "StreamLocation":
        """A new location record after a move/partition."""
        return StreamLocation(nodes, version=self.version + 1)

    def primary(self) -> str:
        return self.nodes[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreamLocation):
            return NotImplemented
        return self.nodes == other.nodes and self.version == other.version

    def __repr__(self) -> str:
        return f"StreamLocation({self.nodes}, v{self.version})"


class IntraParticipantCatalog:
    """The complete catalog shared by all nodes of one participant."""

    def __init__(self, participant: str):
        self.participant = participant
        self._definitions: dict[str, dict[str, Any]] = {
            "operator": {}, "schema": {}, "stream": {}, "query": {}, "contract": {},
        }
        self._stream_locations: dict[str, StreamLocation] = {}
        self._query_pieces: dict[str, dict[str, str]] = {}  # query -> piece -> node

    # -- definitions -----------------------------------------------------------

    def define(self, kind: str, name: str, definition: Any) -> None:
        if kind not in self._definitions:
            raise KeyError(
                f"unknown definition kind {kind!r}; use one of {sorted(self._definitions)}"
            )
        table = self._definitions[kind]
        if name in table:
            raise KeyError(f"{kind} {name!r} already defined in {self.participant!r}")
        table[name] = definition

    def definition(self, kind: str, name: str) -> Any:
        try:
            return self._definitions[kind][name]
        except KeyError:
            raise KeyError(f"no {kind} named {name!r} in {self.participant!r}") from None

    def names(self, kind: str) -> list[str]:
        return sorted(self._definitions[kind])

    # -- stream locations ----------------------------------------------------------

    def set_stream_location(self, stream: str, nodes: list[str]) -> StreamLocation:
        """Record (or update) where a stream's events are available."""
        current = self._stream_locations.get(stream)
        location = current.moved(nodes) if current else StreamLocation(nodes)
        self._stream_locations[stream] = location
        return location

    def stream_location(self, stream: str) -> StreamLocation:
        try:
            return self._stream_locations[stream]
        except KeyError:
            raise KeyError(
                f"no location recorded for stream {stream!r} in {self.participant!r}"
            ) from None

    # -- query pieces ------------------------------------------------------------

    def place_query_piece(self, query: str, piece: str, node: str) -> None:
        """Record that a piece of ``query`` runs at ``node``."""
        self._query_pieces.setdefault(query, {})[piece] = node

    def query_pieces(self, query: str) -> dict[str, str]:
        return dict(self._query_pieces.get(query, {}))

    def node_pieces(self, node: str) -> list[tuple[str, str]]:
        """All (query, piece) pairs currently placed on ``node``."""
        placed = []
        for query, pieces in self._query_pieces.items():
            for piece, where in pieces.items():
                if where == node:
                    placed.append((query, piece))
        return sorted(placed)


class InterParticipantCatalog:
    """The DHT-backed global catalog (Section 4.1).

    "Each participant that provides query capabilities holds a part of
    the shared catalog."  Entries are keyed by entity name; the value is
    a free-form description including the current location.  Lookups
    return the Chord hop count so scalability experiments can use the
    catalog directly.
    """

    def __init__(self):
        self.ring = ChordRing()

    def join(self, participant_node: str) -> None:
        """A participant node starts holding part of the shared catalog."""
        self.ring.add_node(participant_node)

    def leave(self, participant_node: str) -> None:
        self.ring.remove_node(participant_node)

    def publish(self, name: EntityName, description: Any) -> str:
        """Make an entity globally visible; returns the holding node."""
        return self.ring.put(str(name), description)

    def lookup(self, name: EntityName, from_node: str | None = None) -> tuple[Any, int]:
        """Resolve an entity name; returns (description, dht_hops)."""
        return self.ring.get(str(name), start_node=from_node)

    def holder(self, name: EntityName) -> str:
        """Which node stores the entry (no hop accounting)."""
        node, _hops = self.ring.lookup(str(name))
        return node
