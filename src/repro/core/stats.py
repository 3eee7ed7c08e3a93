"""Run-time statistics utilities.

The paper's load management and QoS inference run on measured
statistics ("These statistics can be monitored and maintained in an
approximate fashion over a running network", Section 7.1).  This module
provides the standard estimators — exponentially weighted moving
averages and sliding-window rates — plus a tabular summary of a
network's measured behaviour.
"""

from __future__ import annotations

from collections import deque

from repro.core.query import QueryNetwork


class EWMA:
    """Exponentially weighted moving average.

    Args:
        alpha: weight of each new observation (0 < alpha <= 1).
    """

    def __init__(self, alpha: float = 0.2):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._value: float | None = None
        self.observations = 0

    def update(self, observation: float) -> float:
        if self._value is None:
            self._value = observation
        else:
            self._value += self.alpha * (observation - self._value)
        self.observations += 1
        return self._value

    @property
    def value(self) -> float:
        return self._value if self._value is not None else 0.0

    def __repr__(self) -> str:
        return f"EWMA(alpha={self.alpha:g}, value={self.value:g})"


class RateEstimator:
    """Sliding-window event rate (events/second of virtual time).

    Bounded memory: at most ``capacity`` events are retained; if more
    events than that land inside the window, the estimate saturates low
    (documented behaviour — size the capacity to the rates you expect).

    Bookkeeping is counter-based: events recorded at the same instant
    collapse into one ``(timestamp, count)`` bucket, so
    ``record(now, count=n)`` is O(1) rather than O(n) appends, and the
    retained-event total is maintained incrementally.
    """

    def __init__(self, window: float = 1.0, capacity: int = 4096):
        if window <= 0:
            raise ValueError("window must be positive")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.window = window
        self.capacity = capacity
        self._buckets: deque[list] = deque()  # [timestamp, count] pairs
        self._total = 0

    def record(self, now: float, count: int = 1) -> None:
        if count < 1:
            return
        if self._buckets and self._buckets[-1][0] == now:
            self._buckets[-1][1] += count
        else:
            self._buckets.append([now, count])
        self._total += count
        # Capacity saturation: shed the oldest events first.
        while self._total > self.capacity:
            excess = self._total - self.capacity
            oldest = self._buckets[0]
            if oldest[1] <= excess:
                self._total -= oldest[1]
                self._buckets.popleft()
            else:
                oldest[1] -= excess
                self._total -= excess

    def rate(self, now: float) -> float:
        """Events per second over the trailing window ending at ``now``."""
        cutoff = now - self.window
        while self._buckets and self._buckets[0][0] < cutoff:
            self._total -= self._buckets[0][1]
            self._buckets.popleft()
        return self._total / self.window

    def __len__(self) -> int:
        return self._total


def summarize_network(network: QueryNetwork) -> str:
    """A tabular snapshot of every box's measured statistics."""
    header = (
        f"{'box':<22} {'operator':<38} {'in':>8} {'out':>8} "
        f"{'select':>7} {'T_B':>10}"
    )
    lines = [header, "-" * len(header)]
    for box_id in network.topological_order():
        box = network.boxes[box_id]
        lines.append(
            f"{box_id:<22} {box.operator.describe()[:38]:<38} "
            f"{box.tuples_in:>8} {box.tuples_out:>8} "
            f"{box.selectivity:>7.2f} {box.average_time:>10.5f}"
        )
    queued = network.total_queued()
    lines.append(f"queued tuples across all arcs: {queued}")
    return "\n".join(lines)
