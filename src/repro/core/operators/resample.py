"""Resample: the extrapolation operator (named in Section 2.2).

Aligns an irregular numeric stream onto a regular time grid by linear
interpolation: for every grid point ``k * interval`` falling between two
consecutive input tuples, one output tuple is emitted with the
interpolated value.  This is the classic stream-processing device for
joining sensor streams sampled at different rates.
"""

from __future__ import annotations

from typing import Any

from repro.core.operators.base import Emission, Operator
from repro.core.tuples import StreamTuple


class Resample(Operator):
    """Resample(value_attr, interval): linear interpolation onto a grid.

    Args:
        value_attr: the numeric field being resampled.
        interval: grid spacing in tuple-timestamp units.
        time_attr: emitted field holding the grid timestamp.
    """

    def __init__(
        self,
        value_attr: str,
        interval: float,
        time_attr: str = "time",
        cost_per_tuple: float = 0.002,
    ):
        super().__init__(cost_per_tuple=cost_per_tuple)
        if interval <= 0:
            raise ValueError("resample interval must be positive")
        self.value_attr = value_attr
        self.interval = interval
        self.time_attr = time_attr
        self.reset()

    @property
    def stateful(self) -> bool:
        return True

    def reset(self) -> None:
        self._previous: StreamTuple | None = None
        self._next_grid: float | None = None

    def process(self, tup: StreamTuple, port: int = 0) -> list[Emission]:
        if port != 0:
            raise ValueError(f"Resample has a single input port, got {port}")
        emissions: list[Emission] = []
        if self._previous is None:
            # First grid point at or after the first observation.
            import math

            self._next_grid = math.ceil(tup.timestamp / self.interval) * self.interval
        else:
            prev = self._previous
            assert self._next_grid is not None
            while self._next_grid <= tup.timestamp:
                emissions.append((0, self._interpolate(prev, tup, self._next_grid)))
                self._next_grid += self.interval
        self._previous = tup
        return emissions

    def _interpolate(
        self, before: StreamTuple, after: StreamTuple, at: float
    ) -> StreamTuple:
        span = after.timestamp - before.timestamp
        if span <= 0:
            value = after[self.value_attr]
        else:
            frac = (at - before.timestamp) / span
            v0, v1 = before[self.value_attr], after[self.value_attr]
            value = v0 + (v1 - v0) * frac
        return before.derive({self.time_attr: at, self.value_attr: value})

    def snapshot(self) -> Any:
        return (self._previous, self._next_grid)

    def restore(self, state: Any) -> None:
        if state is None:
            self.reset()
            return
        self._previous, self._next_grid = state

    def describe(self) -> str:
        return f"Resample({self.value_attr}, interval={self.interval:g})"
