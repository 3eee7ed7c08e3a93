"""Adaptive split predicates (Section 5.2).

"Moreover, the choice of p could vary with time.  In other words, as
the network characteristics change, a simple adjustment to p could be
enough to rebalance the load."

An :class:`AdaptiveSplitPredicate` is a hash-fraction router whose
fraction is a mutable dial; :func:`rebalance_split` turns it based on
the observed tuple counts of the two halves of a split, without any
further network transformation — the cheap rebalancing knob the paper
anticipates.

Caveat: an adjustment moves whole groups between the sides, so a group
with an *open* window at adjustment time finishes that window split
across machines.  Decomposable aggregates (sum/cnt/min/max) keep their
per-group totals exact through this; window-boundary-sensitive
consumers should adjust only at quiescent points (the same stabilization
discipline as a slide).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.tuples import StreamTuple
from repro.distributed.splitting import SplitResult
from repro.network.dht import partition_key, stable_hash

if TYPE_CHECKING:  # pragma: no cover
    from repro.distributed.system import AuroraStarSystem

FRACTION_BAND = (0.05, 0.95)  # a rebalanced split fraction starves neither side


class AdaptiveSplitPredicate:
    """A group-stable hash router with an adjustable fraction.

    Tuples whose hashed key falls below ``fraction`` of the hash space
    go to the original box (True); the rest go to the copy.  Changing
    the fraction moves *whole groups* between the sides (hash order is
    stable), so aggregate windows never straddle machines.
    """

    HASH_SPACE = 1 << 32

    def __init__(self, fields: tuple[str, ...] | list[str], fraction: float = 0.5):
        if not fields:
            raise ValueError("need at least one field to hash")
        self.fields = tuple(fields)
        self.fraction = 0.0  # set via the validating setter below
        self.set_fraction(fraction)
        self.adjustments: list[float] = []

    def set_fraction(self, fraction: float) -> None:
        """Move the dial (clamped away from degenerate 0/1 routing)."""
        if not 0.0 < fraction < 1.0:
            raise ValueError("fraction must be in (0, 1)")
        self.fraction = fraction
        self._threshold = int(fraction * self.HASH_SPACE)

    def __call__(self, tup: StreamTuple) -> bool:
        return stable_hash(partition_key(tup.key(self.fields)), bits=32) < self._threshold

    @property
    def __name__(self) -> str:  # keeps Filter's describe() informative
        return f"hash({','.join(self.fields)})<{self.fraction:g}"


def observed_imbalance(system: "AuroraStarSystem", split: SplitResult) -> float:
    """Fraction of split traffic that went to the original box.

    0.5 is perfectly balanced; returns 0.5 before any traffic.
    """
    original = system.network.boxes[split.original].tuples_in
    copy = system.network.boxes[split.copy].tuples_in
    total = original + copy
    if total == 0:
        return 0.5
    return original / total


def rebalance_split(
    system: "AuroraStarSystem",
    split: SplitResult,
    predicate: AdaptiveSplitPredicate,
    target: float = 0.5,
    gain: float = 0.5,
) -> float:
    """Adjust the router's fraction toward a target traffic balance.

    Proportional control: the fraction moves against the observed
    imbalance, scaled by ``gain`` and clamped to :data:`FRACTION_BAND`.  Counters
    on both halves are reset so the next adjustment sees fresh traffic.
    Returns the new fraction.
    """
    if not 0.0 < target < 1.0:
        raise ValueError("target must be in (0, 1)")
    observed = observed_imbalance(system, split)
    error = target - observed
    low, high = FRACTION_BAND
    new_fraction = min(max(predicate.fraction + gain * error, low), high)
    predicate.set_fraction(new_fraction)
    predicate.adjustments.append(new_fraction)
    for box_id in (split.original, split.copy):
        box = system.network.boxes[box_id]
        box.tuples_in = 0
        box.tuples_out = 0
    return new_fraction
