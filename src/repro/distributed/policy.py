"""Repartitioning policies (Section 5.2).

The paper lists the policy questions any repartitioner must answer:
when to initiate load sharing, what to offload (CPU *and* bandwidth
aware), how to choose filter predicates for splits, and what to split.
This module provides concrete, testable answers used by the
load-share daemon; they are deliberately simple heuristics — the paper
itself leaves the policy space open.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.tuples import StreamTuple
from repro.network.dht import partition_key, stable_hash
from repro.network.transport import TUPLE_BYTES

if TYPE_CHECKING:  # pragma: no cover
    from repro.distributed.system import AuroraStarSystem

BANDWIDTH_WEIGHT = 1e-6  # score cost of one byte/s of added overlay traffic


@dataclass
class Thresholds:
    """Initiation policy: when to start (and stop accepting) load sharing.

    "Shifting boxes around too frequently could lead to instability";
    ``cooldown`` is the minimum interval between moves initiated by one
    node, providing the hysteresis the paper calls for.
    """

    high_water: float = 0.8   # offload when load exceeds this
    low_water: float = 0.5    # accept load only while below this
    cooldown: float = 1.0     # min virtual seconds between moves per node

    def __post_init__(self) -> None:
        if not 0 < self.low_water <= self.high_water:
            raise ValueError("need 0 < low_water <= high_water")
        if self.cooldown < 0:
            raise ValueError("cooldown must be non-negative")


def box_input_rate(system: "AuroraStarSystem", box_id: str) -> float:
    """Observed input tuples/second for a box (0 before any traffic)."""
    if system.sim.now <= 0:
        return 0.0
    return system.network.boxes[box_id].tuples_in / system.sim.now


def producer_node(system: "AuroraStarSystem", arc) -> str | None:
    """The node producing onto an arc (ingress node for source arcs)."""
    kind, ref = arc.source
    if kind == "in":
        return system.input_ingress.get(str(ref))
    return system.place(str(kind))


def consumer_node(system: "AuroraStarSystem", arc) -> str | None:
    """The node consuming an arc (None for application outputs)."""
    kind, ref = arc.target
    if kind == "out":
        return None
    return system.place(str(kind))


def bandwidth_delta(
    system: "AuroraStarSystem", box_id: str, to_node: str
) -> float:
    """Change in bytes/second crossing the overlay if the box moves.

    Positive means the move *adds* network traffic.  This is the
    paper's second policy concern: "Even though a neighboring machine
    may have available compute cycles and memory, it may not be able
    to handle the additional bandwidth of the new arcs."
    """
    box = system.network.boxes[box_id]
    from_node = system.place(box_id)
    rate_in = box_input_rate(system, box_id)
    rate_out = rate_in * box.selectivity
    delta = 0.0
    for arc in box.input_arcs.values():
        producer = producer_node(system, arc)
        if producer is None:
            continue  # unbound source: delivered wherever the box lives
        before = producer != from_node
        after = producer != to_node
        delta += (int(after) - int(before)) * rate_in * TUPLE_BYTES
    for arcs in box.output_arcs.values():
        for arc in arcs:
            consumer = consumer_node(system, arc)
            if consumer is None:
                continue  # application outputs are delivered locally
            before = consumer != from_node
            after = consumer != to_node
            delta += (int(after) - int(before)) * rate_out * TUPLE_BYTES
    return delta


def cpu_relief(system: "AuroraStarSystem", box_id: str) -> float:
    """CPU-seconds/second freed on the current node by moving the box."""
    box = system.network.boxes[box_id]
    return box_input_rate(system, box_id) * box.operator.cost_per_tuple


def choose_offload_candidate(
    system: "AuroraStarSystem",
    from_node: str,
    to_node: str,
    bandwidth_headroom: float | None = None,
) -> str | None:
    """Pick the box on ``from_node`` whose slide to ``to_node`` helps most.

    Scores each movable box by CPU relief minus a bandwidth penalty;
    boxes whose move would exceed the link's remaining bandwidth
    (``bandwidth_headroom`` bytes/s) are excluded.  Returns None when no
    move has positive value.
    """
    best: str | None = None
    best_score = 0.0
    for box_id in system.boxes_on(from_node):
        if box_id in system.migrating:
            continue
        relief = cpu_relief(system, box_id)
        bw = bandwidth_delta(system, box_id, to_node)
        if bandwidth_headroom is not None and bw > bandwidth_headroom:
            continue
        score = relief - BANDWIDTH_WEIGHT * max(bw, 0.0)
        if score > best_score:
            best, best_score = box_id, score
    return best


def hottest_box(system: "AuroraStarSystem", node_name: str) -> str | None:
    """The box contributing the most CPU load on a node."""
    best: str | None = None
    best_load = 0.0
    for box_id in system.boxes_on(node_name):
        load = cpu_relief(system, box_id)
        if load > best_load:
            best, best_load = box_id, load
    return best


# -- split-predicate choices (Section 5.2: "Choosing Filter Predicates") ------

def hash_fraction_predicate(
    fraction: float, fields: tuple[str, ...] | list[str]
) -> Callable[[StreamTuple], bool]:
    """A statistics-free router: send ~``fraction`` of key space to the original.

    Hashing the given fields keeps all tuples of one group on the same
    side, so splitting an aggregate never produces cross-machine
    partial windows — this is the "half of the available streams"
    style of predicate from Section 5.2.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    if not fields:
        raise ValueError("need at least one field to hash")
    threshold = int(fraction * (1 << 32))
    fields = tuple(fields)

    def predicate(tup: StreamTuple) -> bool:
        return stable_hash(partition_key(tup.key(fields)), bits=32) < threshold

    predicate.__name__ = f"hash({','.join(fields)})<{fraction:g}"
    return predicate


def attribute_threshold_predicate(
    field: str, threshold: float
) -> Callable[[StreamTuple], bool]:
    """A content-based router (the paper's ``B < 3`` example)."""

    def predicate(tup: StreamTuple) -> bool:
        return tup[field] < threshold

    predicate.__name__ = f"{field}<{threshold!r}"
    return predicate
