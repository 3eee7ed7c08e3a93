"""Run-time network re-optimization (Section 2.3).

"When load shedding is not working, Aurora will try to reoptimize the
network using standard query optimization techniques (such as those
that rely on operator commutativities).  This tactic requires a more
global view of the network and thus is used more sparingly."

Implemented commutativity rewrites, driven by *measured* statistics
(cost and selectivity accumulate on :class:`~repro.core.query.Box`):

* **Filter chain reordering** — adjacent Filter boxes commute; the
  classic predicate-ordering rule runs the cheaper-per-unit-of-
  reduction filter first (ascending rank ``cost / (1 - selectivity)``).
* **Filter/Map swap** — a Filter downstream of a Map whose predicate is
  declared independent of the Map's computed fields moves upstream,
  so the Map only processes surviving tuples.

Rewrites swap the *operators* between boxes, leaving arcs and queued
tuples in place, and bump ``QueryNetwork.revision``, so they are safe
on a live network: an engine running it recompiles its superboxes on
its next call.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.operators.filter import Filter
from repro.core.operators.map import Map
from repro.core.query import Box, QueryNetwork


@dataclass
class Rewrite:
    """One applied transformation (for logging and tests)."""

    kind: str
    upstream: str
    downstream: str

    def __str__(self) -> str:
        return f"{self.kind}({self.upstream} <-> {self.downstream})"


def filter_rank(box: Box) -> float:
    """The predicate-ordering rank: cost per unit of stream reduction.

    Lower rank first.  A non-reducing filter (selectivity ~1) ranks
    last (infinite: it never pays for itself).
    """
    reduction = 1.0 - min(box.selectivity, 1.0)
    if reduction <= 1e-9:
        return float("inf")
    return box.operator.cost_per_tuple / reduction


def _single_consumer(network: QueryNetwork, box_id: str) -> str | None:
    """The sole downstream box of ``box_id``'s only output arc, if any."""
    box = network.boxes[box_id]
    arcs = box.output_arcs.get(0, [])
    if box.operator.n_outputs != 1 or len(arcs) != 1:
        return None
    kind, _ref = arcs[0].target
    if kind == "out":
        return None
    return str(kind)


def _swap_operators(network: QueryNetwork, a_id: str, b_id: str) -> None:
    """Exchange the operators of two boxes (wiring untouched).

    Statistics are reset: they described the old placement and would
    poison the next optimization pass.
    """
    a, b = network.boxes[a_id], network.boxes[b_id]
    a.operator, b.operator = b.operator, a.operator
    network.touch()  # compiled superbox kernels hold the old operators
    for box in (a, b):
        box.tuples_in = 0
        box.tuples_out = 0
        box.latency_sum = 0.0
        box.latency_count = 0


def reorder_filter_chains(network: QueryNetwork) -> list[Rewrite]:
    """Bubble cheaper-per-reduction filters upstream (to a fixpoint)."""
    rewrites: list[Rewrite] = []
    changed = True
    while changed:
        changed = False
        for box_id in network.topological_order():
            box = network.boxes[box_id]
            if not isinstance(box.operator, Filter) or box.operator.with_false_port:
                continue
            succ_id = _single_consumer(network, box_id)
            if succ_id is None:
                continue
            succ = network.boxes[succ_id]
            if not isinstance(succ.operator, Filter) or succ.operator.with_false_port:
                continue
            if filter_rank(succ) < filter_rank(box):
                _swap_operators(network, box_id, succ_id)
                rewrites.append(Rewrite("reorder-filters", box_id, succ_id))
                changed = True
    return rewrites


def push_filters_before_maps(network: QueryNetwork) -> list[Rewrite]:
    """Move selective Filters upstream past Maps where declared safe.

    Python predicates are opaque, so commutation must be *declared*:
    a Map is bypassable by a filter when the filter's operator carries
    ``commutes_with_map=True`` (set via :func:`mark_commutes_with_map`),
    asserting its predicate reads only fields the Map passes through
    unchanged.
    """
    rewrites: list[Rewrite] = []
    changed = True
    while changed:
        changed = False
        for box_id in network.topological_order():
            box = network.boxes[box_id]
            if not isinstance(box.operator, Map):
                continue
            succ_id = _single_consumer(network, box_id)
            if succ_id is None:
                continue
            succ = network.boxes[succ_id]
            operator = succ.operator
            if not isinstance(operator, Filter) or operator.with_false_port:
                continue
            if not getattr(operator, "commutes_with_map", False):
                continue
            if succ.selectivity >= 1.0:
                continue  # no reduction: the swap would not help
            _swap_operators(network, box_id, succ_id)
            rewrites.append(Rewrite("filter-before-map", box_id, succ_id))
            changed = True
    return rewrites


def mark_commutes_with_map(filter_operator: Filter) -> Filter:
    """Declare that a filter's predicate commutes with upstream Maps."""
    filter_operator.commutes_with_map = True
    return filter_operator


def reoptimize(network: QueryNetwork) -> list[Rewrite]:
    """Run all rewrite passes; returns the applied rewrites in order."""
    rewrites = reorder_filter_chains(network)
    rewrites += push_filters_before_maps(network)
    # A map-swap can expose a new filter-chain ordering.
    if rewrites:
        rewrites += reorder_filter_chains(network)
    return rewrites


def estimated_chain_cost(network: QueryNetwork, rates: dict[str, float]) -> float:
    """Expected work per second given per-input rates and measured stats.

    A planning helper: walks the network in topological order,
    propagating rates through measured selectivities, summing
    ``rate * cost`` per box.  Used by tests and the optimizer ablation
    bench to verify rewrites reduce expected cost.
    """
    arc_rate: dict[str, float] = {}
    for name, arcs in network.inputs.items():
        for arc in arcs:
            arc_rate[arc.id] = rates.get(name, 0.0)
    total = 0.0
    for box_id in network.topological_order():
        box = network.boxes[box_id]
        rate_in = sum(
            arc_rate.get(arc.id, 0.0) for arc in box.input_arcs.values()
        )
        total += rate_in * box.operator.cost_per_tuple
        rate_out = rate_in * min(box.selectivity, 10.0)
        for arcs in box.output_arcs.values():
            for arc in arcs:
                arc_rate[arc.id] = rate_out
    return total
