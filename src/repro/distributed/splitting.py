"""Box splitting: parallelizing a box across machines (Section 5.1, Figures 5-7).

"A split creates a copy of a box that is intended to run on a second
machine. ... Every box-split must be preceded by a Filter box with a
predicate that partitions input tuples. ... For splits to be
transparent (i.e., to ensure that a split box returns the same result
as an unsplit box), one or more boxes must be added to the network that
merges the box outputs back into a single stream."

Merge-network synthesis follows the paper exactly:

* splitting a **Filter** (or any stateless single-output box) "simply
  requires a Union box to accomplish the merge" (Figure 5);
* splitting a **Tumble** "requires a more sophisticated merge,
  consisting of Union followed by WSort and then another Tumble"
  applying the aggregate's *combination function* (Figure 6) — refused
  unless the aggregate is splittable.

:func:`split_box` performs the pure network transformation (usable with
the reference executor for transparency checks); :func:`split_box_distributed`
additionally places the new boxes in an Aurora* deployment (Figure 7's
remapping: the copy goes to the neighbor machine).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.core.operators.base import Operator
from repro.core.operators.filter import Filter
from repro.core.operators.tumble import Tumble
from repro.core.operators.union import Union
from repro.core.operators.wsort import WSort
from repro.core.query import QueryNetwork
from repro.core.tuples import StreamTuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.distributed.system import AuroraStarSystem


class SplitError(RuntimeError):
    """Raised when a box cannot be split transparently."""


@dataclass
class SplitResult:
    """Bookkeeping for one split: the ids of every box involved."""

    original: str
    router: str
    copy: str
    merge_boxes: list[str] = field(default_factory=list)

    @property
    def new_boxes(self) -> list[str]:
        return [self.router, self.copy, *self.merge_boxes]


def split_box(
    network: QueryNetwork,
    box_id: str,
    predicate: Callable[[StreamTuple], bool],
    predicate_name: str | None = None,
    wsort_timeout: float = float("inf"),
    group_stable: bool = False,
) -> SplitResult:
    """Split ``box_id`` in two, routed by ``predicate`` (True -> original).

    The network transformation is in-place; queued tuples on the box's
    input arc flow through the new router, and the original box keeps
    its accumulated state (the paper's "split takes place after tuple
    #3" scenario).  Raises :class:`SplitError` for boxes that cannot be
    split transparently (multi-input boxes, non-splittable aggregates).

    ``group_stable`` declares that the predicate routes every tuple of
    a groupby key to the same side (e.g.,
    :func:`~repro.distributed.policy.hash_fraction_predicate` over the
    groupby attributes).  Count-mode Tumbles can only be split under a
    group-stable predicate — each group's windows then compute wholly
    on one side, so a plain Union merges transparently.
    """
    box = network.boxes.get(box_id)
    if box is None:
        raise SplitError(f"unknown box {box_id!r}")
    operator = box.operator
    if operator.arity != 1:
        raise SplitError(f"cannot split multi-input box {box_id!r} ({operator.describe()})")
    if operator.n_outputs != 1:
        raise SplitError(
            f"cannot split multi-output box {box_id!r} ({operator.describe()})"
        )
    if isinstance(operator, Tumble):
        if operator.mode == "count" and not group_stable:
            raise SplitError(
                "count-mode Tumble splits require a group-stable router "
                "predicate (window boundaries would shift otherwise)"
            )
        if operator.mode == "run" and not operator.agg.splittable:
            raise SplitError(
                f"Tumble aggregate {operator.agg.name!r} has no combination "
                "function; split would not be transparent"
            )

    input_arc = box.input_arcs.get(0)
    if input_arc is None:
        raise SplitError(f"box {box_id!r} has no input arc")

    router_id = f"{box_id}__router"
    copy_id = f"{box_id}__copy"
    for new_id in (router_id, copy_id):
        if new_id in network.boxes:
            raise SplitError(f"box {box_id!r} appears to be split already ({new_id} exists)")

    # The semantic router: True-port to the original, false-port to the copy.
    router = Filter(
        predicate,
        with_false_port=True,
        name=predicate_name or getattr(predicate, "__name__", "split"),
        cost_per_tuple=operator.cost_per_tuple * 0.1,
    )
    network.add_box(router_id, router)
    network.add_box(copy_id, operator.clone())

    # Input rewiring: feed the router; fan out to both halves.
    network.rewire_target(input_arc, router_id)
    network.connect((router_id, 0), box_id, arc_id=f"{box_id}__to_original")
    network.connect((router_id, 1), copy_id, arc_id=f"{box_id}__to_copy")

    # Merge network.
    merge_boxes = _build_merge(
        network, box_id, copy_id, operator, wsort_timeout, group_stable
    )

    # The original consumers now read from the merge output.
    old_output_arcs = list(box.output_arcs.get(0, []))
    for arc in old_output_arcs:
        network.rewire_source(arc, merge_boxes[-1])

    # Wire both halves into the merge entry (a Union).
    union_id = merge_boxes[0]
    network.connect((box_id, 0), (union_id, 0), arc_id=f"{box_id}__orig_to_merge")
    network.connect((copy_id, 0), (union_id, 1), arc_id=f"{box_id}__copy_to_merge")

    network.validate()
    return SplitResult(
        original=box_id, router=router_id, copy=copy_id, merge_boxes=merge_boxes
    )


def _build_merge(
    network: QueryNetwork,
    box_id: str,
    copy_id: str,
    operator: Operator,
    wsort_timeout: float,
    group_stable: bool = False,
) -> list[str]:
    """Create the merge boxes for a split; returns their ids in flow order."""
    union_id = f"{box_id}__merge_union"
    network.add_box(union_id, Union(2, cost_per_tuple=operator.cost_per_tuple * 0.05))
    if not isinstance(operator, Tumble):
        # Figure 5: a stateless split merges with Union alone.
        return [union_id]
    if operator.mode == "count" and group_stable:
        # Group-disjoint routing: every window computes wholly on one
        # side, so interleaving the two output streams is the identity.
        return [union_id]
    # Figure 6: Union -> WSort(groupby) -> Tumble(combine, groupby).
    sort_id = f"{box_id}__merge_sort"
    combine_id = f"{box_id}__merge_combine"
    network.add_box(
        sort_id,
        WSort(
            operator.groupby,
            timeout=wsort_timeout,
            cost_per_tuple=operator.cost_per_tuple * 0.3,
        ),
    )
    network.add_box(
        combine_id,
        Tumble(
            operator.agg.combiner(),
            groupby=operator.groupby,
            value_attr=operator.result_attr,
            result_attr=operator.result_attr,
            cost_per_tuple=operator.cost_per_tuple * 0.5,
        ),
    )
    network.connect(union_id, sort_id, arc_id=f"{box_id}__merge_u2s")
    network.connect(sort_id, combine_id, arc_id=f"{box_id}__merge_s2t")
    return [union_id, sort_id, combine_id]


def split_box_distributed(
    system: "AuroraStarSystem",
    box_id: str,
    predicate: Callable[[StreamTuple], bool],
    to_node: str,
    predicate_name: str | None = None,
    wsort_timeout: float = float("inf"),
    group_stable: bool = False,
) -> SplitResult:
    """Split a box in a running Aurora* deployment (Figure 7's remapping).

    The copy runs on ``to_node``; the router and the merge network stay
    on the original box's node.
    """
    if to_node not in system.nodes:
        raise SplitError(f"unknown node {to_node!r}")
    home = system.place(box_id)
    result = split_box(
        system.network,
        box_id,
        predicate,
        predicate_name=predicate_name,
        wsort_timeout=wsort_timeout,
        group_stable=group_stable,
    )
    system.set_placement(result.router, home)
    system.set_placement(result.copy, to_node)
    for merge_box in result.merge_boxes:
        system.set_placement(merge_box, home)
    system.control_messages += 1  # the pair-wise negotiation (Section 5.1)
    for node_name in {system.placement[b] for b in result.new_boxes}:
        system.nodes[node_name].kick()
    return result
