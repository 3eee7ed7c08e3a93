"""Box sliding: horizontal load sharing (Section 5.1, Figure 4).

"This technique takes a box on the edge of a sub-network on one machine
and shifts it to its neighbor.  Shifting a box upstream is often useful
if the box has a low selectivity ... Shifting a box downstream can be
useful if the selectivity of the box is greater than one."

The migration protocol follows the paper's stabilization recipe:

1. *choke* — the box stops being scheduled (it joins the system's
   ``migrating`` set, and an upstream connection point, when present,
   is choked so no new tuples enter the moving sub-network);
2. *drain* — tuples already queued at the box are processed at the old
   node ("any tuples that are queued within S are allowed to drain
   off");
3. *move* — the operator's state is shipped to the destination as a
   control message whose size reflects the state (cost of migration);
4. *resume* — placement is updated, the connection point is unchoked
   and held tuples replayed, and the destination node is kicked.

Because arcs are global objects, in-flight messages addressed to the
old node are forwarded to the new owner on arrival (see
``AuroraNode._on_tuples``), so no tuple is lost or duplicated.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.network.overlay import Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.distributed.system import AuroraStarSystem

STATE_ITEM_BYTES = 50  # wire bytes per item of a shipped operator snapshot


class SlideError(RuntimeError):
    """Raised when a slide request is invalid."""


def estimate_state_size(system: "AuroraStarSystem", box_id: str) -> int:
    """Rough wire size of a box's operator state (bytes)."""
    operator = system.network.boxes[box_id].operator
    snapshot = operator.snapshot() if operator.stateful else None
    if snapshot is None:
        return 16
    try:
        n_items = len(snapshot)
    except TypeError:
        n_items = 1
    return 16 + STATE_ITEM_BYTES * max(n_items, 1)


def slide_box(
    system: "AuroraStarSystem",
    box_id: str,
    to_node: str,
) -> float:
    """Move one box to a neighboring node.  Returns the completion time.

    The box is unavailable (choked) between now and the returned time;
    tuples arriving meanwhile queue on its input arcs and are processed
    at the destination after the move.
    """
    if box_id not in system.network.boxes:
        raise SlideError(f"unknown box {box_id!r}")
    if to_node not in system.nodes:
        raise SlideError(f"unknown node {to_node!r}")
    from_node = system.place(box_id)
    if from_node == to_node:
        raise SlideError(f"box {box_id!r} is already on {to_node!r}")
    if box_id in system.migrating:
        raise SlideError(f"box {box_id!r} is already migrating")

    box = system.network.boxes[box_id]

    # 1. choke: stop scheduling the box; choke upstream connection
    # points.
    system.migrating.add(box_id)
    choked = []
    for arc in box.input_arcs.values():
        if arc.connection_point is not None:
            arc.connection_point.choke()
            choked.append(arc)

    # 2. drain the queued tuples at the old node (charged to its CPU).
    system.nodes[from_node].drain_box(box_id)

    # 3. ship the state: a control message from old to new owner.
    state_size = estimate_state_size(system, box_id)
    message = Message("control", {"op": "slide", "box": box_id}, size=state_size)
    arrival = system.overlay.send(from_node, to_node, message)
    system.control_messages += 1

    # 4. on arrival, flip ownership and resume flow.
    def complete() -> None:
        system.set_placement(box_id, to_node)
        system.migrating.discard(box_id)
        for arc in choked:
            held = arc.connection_point.unchoke()
            if held:
                system.enqueue_arc(arc, held)
        system.nodes[to_node].kick()

    system.sim.schedule_at(arrival, complete)
    return arrival


def slide_upstream_saves_bandwidth(
    selectivity: float, input_rate: float, tuple_bytes: int
) -> float:
    """Bytes/second saved on the inter-node link by sliding a filter upstream.

    The paper's Figure 4 rationale in closed form: before the slide the
    link carries the full input (rate * bytes); after, only the
    filtered fraction, saving ``(1 - selectivity) * rate * bytes``.
    Negative for selectivity > 1 (slide downstream instead).
    """
    return (1.0 - selectivity) * input_rate * tuple_bytes
