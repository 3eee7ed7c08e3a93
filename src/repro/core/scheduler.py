"""Box schedulers, including train scheduling (Section 2.3).

"The heart of the system is the scheduler that determines which box to
run.  It also determines how many of the tuples that might be waiting in
front of a given box to process and how far to push them toward the
output.  We call this latter determination train scheduling."

A scheduler chooses the next box; the engine then processes a *train*
of up to ``train_size`` tuples from that box and, if ``push_trains`` is
on, pushes the results through downstream boxes within the same
scheduling step — amortizing the per-decision scheduling overhead.
The final tactic in Section 2.3's list — "retune the scheduler by ...
switching scheduler disciplines" — is supported by swapping the
scheduler object on a running engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import AuroraEngine


class Scheduler:
    """Strategy interface: pick the next box to run.

    ``choose`` reads the engine's queued index and nothing else about
    queue state: ``engine.queued_counts`` maps only the boxes with
    queued input to their counts (kept current by the engine's enqueue
    and claim paths), so a decision costs O(non-empty boxes) instead of
    a scan of the whole network; ``engine.topo_position`` gives each
    box's rank in ``engine.box_order`` for deterministic tie-breaking.

    The index is the truth, for every discipline alike: a tuple put on
    an arc behind the engine's back (``arc.push``) is invisible to all
    of them until ``engine.invalidate_caches()`` rebuilds the index from
    the queues, and visible to all of them after it.
    """

    name = "abstract"

    def choose(self, engine: "AuroraEngine") -> str | None:
        """Return the id of the box to run next, or None if nothing is runnable."""
        raise NotImplementedError

    def network_changed(self, engine: "AuroraEngine") -> None:
        """Hook: the engine's topology caches were rebuilt (box_order
        may have grown, shrunk or been reordered)."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class RoundRobinScheduler(Scheduler):
    """Cycle through boxes in a fixed order, skipping empty ones."""

    name = "round_robin"

    def __init__(self) -> None:
        self._cursor = 0

    def choose(self, engine: "AuroraEngine") -> str | None:
        counts = engine.queued_counts
        if not counts:
            return None
        # Rank the queued boxes by distance from the cursor: the box a
        # walk of box_order from the cursor would meet first, without
        # walking the empty stretch.
        size = len(engine.box_order)
        cursor = self._cursor
        position = engine.topo_position
        offset = size
        for queued_id in counts:
            distance = (position[queued_id] - cursor) % size
            if distance < offset:
                offset, box_id = distance, queued_id
        self._cursor = (cursor + offset + 1) % size
        return box_id

    def network_changed(self, engine: "AuroraEngine") -> None:
        # A rewrite that shrinks box_order would otherwise leave the
        # cursor pointing past the end, silently skewing the rotation's
        # starting point after the rewrite.
        if self._cursor >= len(engine.box_order):
            self._cursor = 0


class LongestQueueScheduler(Scheduler):
    """Always run the box with the most queued input tuples.

    Ties break toward the earliest box in topological order, matching
    what a first-strictly-greater scan of ``box_order`` would pick.
    """

    name = "longest_queue"

    def choose(self, engine: "AuroraEngine") -> str | None:
        best_id: str | None = None
        best_queued = 0
        best_pos = 0
        position = engine.topo_position
        for box_id, queued in engine.queued_counts.items():
            if queued < best_queued:
                continue
            pos = position.get(box_id, 0)
            if queued > best_queued or best_id is None or pos < best_pos:
                best_id, best_queued, best_pos = box_id, queued, pos
        return best_id


class QoSScheduler(Scheduler):
    """QoS-driven scheduling: favor boxes feeding urgent outputs.

    A box's urgency is the steepest downward latency-utility slope among
    the outputs it can reach, evaluated at the age of its oldest queued
    tuple, weighted by application importance.  Boxes whose outputs sit
    on the flat (still-happy) part of their QoS graph yield to boxes
    whose outputs are sliding down the utility cliff — the behaviour
    Section 2.3 describes as QoS information "driving the Scheduler in
    its decision-making".
    """

    name = "qos"

    def choose(self, engine: "AuroraEngine") -> str | None:
        best_id: str | None = None
        best_score = 0.0
        best_pos = 0
        position = engine.topo_position
        for box_id, queued in engine.queued_counts.items():
            if queued <= 0:
                continue
            score = queued * max(self._urgency(engine, box_id), 1e-9)
            pos = position.get(box_id, 0)
            if (
                best_id is None
                or score > best_score
                or (score == best_score and pos < best_pos)
            ):
                best_id, best_score, best_pos = box_id, score, pos
        return best_id

    def _urgency(self, engine: "AuroraEngine", box_id: str) -> float:
        urgency = 0.0
        oldest = engine.oldest_queued_timestamp(box_id)
        age = max(engine.clock - oldest, 0.0) if oldest is not None else 0.0
        for output in engine.outputs_reachable_from(box_id):
            spec = engine.qos_monitor.spec_for(output)
            slope = -spec.latency.slope_at(age)  # downward slope -> positive urgency
            urgency = max(urgency, spec.importance * max(slope, 0.0))
        return urgency


SCHEDULERS = {
    cls.name: cls
    for cls in (RoundRobinScheduler, LongestQueueScheduler, QoSScheduler)
}


def make_scheduler(name: str) -> Scheduler:
    """Instantiate a scheduler discipline by name."""
    try:
        return SCHEDULERS[name]()
    except KeyError:
        raise KeyError(
            f"unknown scheduler {name!r}; available: {sorted(SCHEDULERS)}"
        ) from None
