"""Result precision as a QoS dimension (Section 7.1).

"Because imprecise query answers are sometimes unavoidable or even
preferable to precise query answers, precision is the wrong standard
for Aurora systems to strive for.  In general, there will be a
continuum of acceptable answers to a query, each of which has some
measurable deviation from the perfect answer.  The degree of tolerable
approximation is application specific; QoS specifications serve to
define what is acceptable."

This module supplies the two halves of that sentence: a *measurable
deviation* between an approximate output stream (e.g. produced under
load shedding) and the precise one, and a ``precision_qos`` graph
turning deviation into utility.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.qos import PiecewiseLinear
from repro.core.tuples import StreamTuple


def precision_qos(tolerable: float, zero_at: float) -> PiecewiseLinear:
    """Utility over relative deviation from the perfect answer.

    Full utility up to ``tolerable`` deviation, falling linearly to 0
    at ``zero_at`` — the application-specific "degree of tolerable
    approximation".
    """
    if zero_at <= tolerable:
        raise ValueError("zero_at must exceed tolerable")
    return PiecewiseLinear([(0.0, 1.0), (tolerable, 1.0), (zero_at, 0.0)])


@dataclass
class DeviationReport:
    """How far an approximate answer strays from the precise one."""

    mean_relative_error: float
    max_relative_error: float
    missing_groups_fraction: float
    spurious_groups_fraction: float
    groups_compared: int

    @property
    def deviation(self) -> float:
        """The scalar deviation a precision-QoS graph consumes.

        Combines value error with structural error (missing/spurious
        groups count as full deviation for their share of groups).
        """
        return (
            self.mean_relative_error
            + self.missing_groups_fraction
            + self.spurious_groups_fraction
        )


def _group_values(
    outputs: list[StreamTuple], key_attrs: tuple[str, ...]
) -> dict[tuple, float]:
    """Sum the ``result`` field per group key (aggregate comparison)."""
    groups: dict[tuple, float] = {}
    for tup in outputs:
        key = tup.key(key_attrs)
        groups[key] = groups.get(key, 0.0) + float(tup["result"])
    return groups


def measure_deviation(
    precise: list[StreamTuple],
    approximate: list[StreamTuple],
    key_attrs: tuple[str, ...],
) -> DeviationReport:
    """Compare an approximate aggregate output against the precise one.

    The compared value is each tuple's ``result`` field (the aggregate
    boxes' default ``result_attr``).

    Aggregates are compared as per-group totals (the natural invariant
    for windowed sums/counts whose window boundaries may shift under
    shedding).  Relative error per group is
    ``|approx - exact| / max(|exact|, 1)``.
    """
    exact = _group_values(precise, key_attrs)
    approx = _group_values(approximate, key_attrs)
    if not exact and not approx:
        return DeviationReport(0.0, 0.0, 0.0, 0.0, 0)

    shared = set(exact) & set(approx)
    missing = set(exact) - set(approx)
    spurious = set(approx) - set(exact)
    errors = []
    for key in shared:
        denominator = max(abs(exact[key]), 1.0)
        errors.append(abs(approx[key] - exact[key]) / denominator)
    universe = len(exact | approx)
    return DeviationReport(
        mean_relative_error=sum(errors) / len(errors) if errors else 0.0,
        max_relative_error=max(errors) if errors else 0.0,
        missing_groups_fraction=len(missing) / universe,
        spurious_groups_fraction=len(spurious) / universe,
        groups_compared=len(shared),
    )


def precision_utility(
    report: DeviationReport, graph: PiecewiseLinear
) -> float:
    """Evaluate a precision-QoS graph on a deviation report."""
    return graph(report.deviation)
