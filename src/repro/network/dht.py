"""Distributed hash tables for the inter-participant catalog (Section 4.1).

"We propose to implement such a distributed catalog using a distributed
hash table (DHT) with entity names as unique keys.  Several algorithms
exist for this purpose (e.g., DHTs based on consistent hashing and
LH*). ... they all efficiently locate nodes for any key-value binding,
and scale with the number of nodes and the number of objects."

Two schemes are implemented:

* :class:`ConsistentHashRing` — consistent hashing with virtual nodes
  (Karger et al.), giving O(1)-hop placement with balanced key load;
* :class:`ChordRing` — Chord-style finger-table routing (Stoica et
  al.), whose iterative lookups take O(log n) hops; hop counts are
  returned so experiment E11 can verify the scaling claim.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Any, Iterator

import numpy as np


def stable_hash(key: str, bits: int = 64) -> int:
    """Deterministic hash of a string onto ``bits`` bits (SHA-1 based).

    Python's builtin ``hash`` is salted per process; experiments need
    placement that is identical across runs.
    """
    digest = hashlib.sha1(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (1 << bits)


def partition_key(key: Any) -> str:
    """The string a partition key (a value or a tuple of values) hashes
    as: its ``repr`` once every NumPy scalar in it is its Python value, so
    ``np.int64(5)`` read from a column and ``5`` built in Python land on
    the same side of every split and ring."""
    if type(key) is tuple:
        return repr(tuple(v.item() if isinstance(v, np.generic) else v for v in key))
    return repr(key.item() if isinstance(key, np.generic) else key)


class ConsistentHashRing:
    """Consistent hashing with virtual nodes.

    Keys and nodes hash onto the same circular space; a key is owned by
    the first node clockwise from it.  ``replicas`` virtual points per
    node smooth the load distribution.
    """

    def __init__(self, replicas: int = 64):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        self._ring: list[tuple[int, str]] = []  # sorted (point, node)
        self._nodes: set[str] = set()

    def add_node(self, node: str) -> None:
        if node in self._nodes:
            raise ValueError(f"node {node!r} already in ring")
        self._nodes.add(node)
        for i in range(self.replicas):
            point = stable_hash(f"{node}#{i}")
            self._ring.append((point, node))
        self._ring.sort()

    def remove_node(self, node: str) -> None:
        if node not in self._nodes:
            raise ValueError(f"node {node!r} not in ring")
        self._nodes.remove(node)
        self._ring = [(p, n) for p, n in self._ring if n != node]

    def owner(self, key: str) -> str:
        """The node owning ``key``."""
        if not self._ring:
            raise LookupError("ring has no nodes")
        point = stable_hash(key)
        index = bisect_right(self._ring, (point, "￿"))
        if index == len(self._ring):
            index = 0
        return self._ring[index][1]

    def nodes(self) -> list[str]:
        return sorted(self._nodes)

    def key_distribution(self, keys: list[str]) -> dict[str, int]:
        """How many of ``keys`` each node owns (load-balance metric)."""
        counts = {node: 0 for node in self._nodes}
        for key in keys:
            counts[self.owner(key)] += 1
        return counts

    def __len__(self) -> int:
        return len(self._nodes)


class ChordRing:
    """A Chord ring with finger tables and hop-counted lookups.

    Node identifiers live on a ``2**m`` space.  Each node keeps ``m``
    fingers: finger ``i`` is the successor of ``node_id + 2**i``.
    Lookups hop through closest-preceding fingers; the returned hop
    count is what the paper's scalability argument rests on
    (O(log n) per lookup).
    """

    def __init__(self, m: int = 32):
        if not 1 <= m <= 64:
            raise ValueError("m must be between 1 and 64")
        self.m = m
        self.space = 1 << m
        self._ids: list[int] = []          # sorted node ids
        self._names: dict[int, str] = {}   # id -> node name
        self._fingers: dict[int, list[int]] = {}
        self._store: dict[int, dict[str, Any]] = {}
        self.lookups = 0
        self.total_hops = 0

    # -- membership ----------------------------------------------------------

    def node_id(self, node: str) -> int:
        return stable_hash(node) % self.space

    def add_node(self, node: str) -> int:
        """Add a node; returns its ring id.  Rebuilds fingers and
        reassigns stored keys (a simplified, atomic join)."""
        nid = self.node_id(node)
        if nid in self._names:
            raise ValueError(
                f"id collision or duplicate node: {node!r} -> {nid}"
            )
        self._ids.append(nid)
        self._ids.sort()
        self._names[nid] = node
        self._store.setdefault(nid, {})
        self._rebuild_fingers()
        self._redistribute()
        return nid

    def remove_node(self, node: str) -> None:
        nid = self.node_id(node)
        if nid not in self._names:
            raise ValueError(f"node {node!r} not in ring")
        orphaned = self._store.pop(nid, {})
        self._ids.remove(nid)
        del self._names[nid]
        self._rebuild_fingers()
        # Hand orphaned keys to their new successors.
        for key, value in orphaned.items():
            self.put(key, value)

    def _successor(self, point: int) -> int:
        index = bisect_right(self._ids, point - 1)
        if index == len(self._ids):
            index = 0
        return self._ids[index]

    def _rebuild_fingers(self) -> None:
        self._fingers = {}
        if not self._ids:
            return
        for nid in self._ids:
            self._fingers[nid] = [
                self._successor((nid + (1 << i)) % self.space) for i in range(self.m)
            ]

    def _redistribute(self) -> None:
        everything = [
            (key, value) for shard in self._store.values() for key, value in shard.items()
        ]
        for nid in self._store:
            self._store[nid] = {}
        for key, value in everything:
            owner = self._successor(stable_hash(key) % self.space)
            self._store[owner][key] = value

    # -- routing --------------------------------------------------------------

    def lookup(self, key: str, start_node: str | None = None) -> tuple[str, int]:
        """Resolve ``key`` to its owner node.

        Returns ``(node_name, hops)`` where hops counts inter-node
        forwarding steps from ``start_node`` (default: the first node).
        """
        if not self._ids:
            raise LookupError("ring has no nodes")
        target = stable_hash(key) % self.space
        owner = self._successor(target)
        current = self.node_id(start_node) if start_node else self._ids[0]
        if start_node and current not in self._names:
            raise ValueError(f"unknown start node {start_node!r}")
        hops = 0
        while current != owner:
            nxt = self._closest_preceding(current, target)
            if nxt == current:
                # Fingers cannot make progress; one final hop to the
                # successor completes the lookup (Chord's base case).
                current = owner
            else:
                current = nxt
            hops += 1
        self.lookups += 1
        self.total_hops += hops
        return self._names[owner], hops

    def _closest_preceding(self, current: int, target: int) -> int:
        """The highest finger of ``current`` strictly between it and target."""
        for finger in reversed(self._fingers[current]):
            if self._in_open_interval(finger, current, target):
                return finger
        # No finger helps: fall to the immediate successor.
        successor = self._fingers[current][0]
        if self._in_open_interval(successor, current, target) or successor == target:
            return successor
        return current

    @staticmethod
    def _in_open_interval(x: int, a: int, b: int) -> bool:
        """True if x lies in (a, b) on the ring."""
        if a < b:
            return a < x < b
        return x > a or x < b

    # -- storage ---------------------------------------------------------------

    def put(self, key: str, value: Any) -> str:
        """Store a key-value binding; returns the owning node."""
        if not self._ids:
            raise LookupError("ring has no nodes")
        owner = self._successor(stable_hash(key) % self.space)
        self._store[owner][key] = value
        return self._names[owner]

    def get(self, key: str, start_node: str | None = None) -> tuple[Any, int]:
        """Fetch a binding, returning ``(value, hops)``.

        Raises KeyError if the key is absent (after routing to its owner).
        """
        node, hops = self.lookup(key, start_node)
        shard = self._store[self.node_id(node)]
        if key not in shard:
            raise KeyError(key)
        return shard[key], hops

    def mean_hops(self) -> float:
        """Average hops across all lookups performed so far."""
        return self.total_hops / self.lookups if self.lookups else 0.0

    def nodes(self) -> list[str]:
        return sorted(self._names.values())

    def keys_per_node(self) -> dict[str, int]:
        return {self._names[nid]: len(shard) for nid, shard in self._store.items()}

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[str]:
        return iter(self.nodes())
