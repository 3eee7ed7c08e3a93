"""PartitionRouter: the consistent-hash router in front of an elastic box.

Box splitting (paper Section 5.1) fronts a split box with a "semantic
router" — a predicate Filter that sends each tuple to exactly one copy.
Static splits use ``Filter(with_false_port=True)``; the elasticity
controller (``repro.core.elasticity``) needs a router whose fan-out
*changes at runtime* as replicas are added and removed, so this operator
routes on a shared :class:`~repro.core.elasticity.PartitionRing` instead
of a fixed predicate: output port = ring owner of the tuple's key.

Two deliberate design points:

* ``n_outputs`` is a plain attribute managed by the controller, not
  derived from the ring.  During a two-phase scale-out the new replica's
  port is wired *before* the ring routes to it (zero tuples flow there
  until the commit flips the ring), so port count and ring size diverge
  transiently by design.
* Routed counts are kept per ring *slot name* (``self.routed``), not per
  port index: slot names are stable across the port compaction a
  scale-in performs, which is what lets crash repair compute the
  declared loss for a dead replica as ``routed[slot] - tuples_in``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.operators.base import Emission, StatelessOperator
from repro.core.tuples import StreamTuple

if TYPE_CHECKING:
    from repro.core.elasticity import PartitionRing


class PartitionRouter(StatelessOperator):
    """Route each tuple to the ring-owner replica of its key.

    Not fusable: its fan-out changes at runtime and superbox compilation
    assumes a frozen topology between rewrites.
    """

    fusable = False

    def __init__(self, ring: "PartitionRing", cost_per_tuple: float = 0.0002):
        super().__init__(cost_per_tuple=cost_per_tuple)
        self.ring = ring
        self.n_outputs = max(1, ring.size)
        # Tuples routed per ring slot *name* (stable across port shifts).
        self.routed: dict[str, int] = {}

    def process(self, tup: StreamTuple, port: int = 0) -> list[Emission]:
        if port != 0:
            raise ValueError(f"PartitionRouter has a single input port, got {port}")
        index, slot = self.ring.route(tup.values)
        self.routed[slot] = self.routed.get(slot, 0) + 1
        return [(index, tup)]

    def process_batch(self, tuples: list[StreamTuple], port: int = 0) -> list[Emission]:
        """Hoisted loop: one ring/table lookup set per tuple, no dispatch."""
        if port != 0:
            raise ValueError(f"PartitionRouter has a single input port, got {port}")
        route = self.ring.route
        routed = self.routed
        emissions: list[Emission] = []
        append = emissions.append
        for tup in tuples:
            index, slot = route(tup.values)
            routed[slot] = routed.get(slot, 0) + 1
            append((index, tup))
        return emissions

    def describe(self) -> str:
        fields = ",".join(self.ring.fields)
        return f"PartitionRouter({fields} -> {self.ring.size} slots)"
