"""Metrics registry: counters, gauges, fixed-bucket histograms.

Design constraints, in order:

1. **Cheap enough to stay on by default.**  A handle (:class:`Counter`,
   :class:`Gauge`, :class:`Histogram`) is looked up once and cached by
   its owner; the hot path is a single method call on the handle.  The
   batched execution path charges one ``inc(n)`` per tuple train, never
   one per tuple.
2. **Free when disabled.**  A disabled registry hands out the shared
   null handles whose methods do nothing, so instrumented code needs no
   ``if enabled`` branches.
3. **Deterministic export.**  :meth:`MetricsRegistry.snapshot` renders
   metrics under canonical sorted keys, so two runs that perform the
   same work produce byte-identical JSON snapshots regardless of the
   order in which handles were first created.

Naming convention: dotted metric names (``engine.box.tuples_in``) with
the topology coordinates as labels (``node=``, ``box=``, ``arc=``,
``stream=``, ``input=``).  A metric's identity is the (name, labels)
pair.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator

DEFAULT_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0)


def render_labels(labels: dict[str, str]) -> str:
    """Canonical label rendering: ``{a=x,b=y}`` sorted by key, or ``""``."""
    if not labels:
        return ""
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing count (batch-aware)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict[str, str]):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}{render_labels(self.labels)}={self.value})"


class Gauge:
    """A point-in-time value (set, or adjusted up/down)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict[str, str]):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def __repr__(self) -> str:
        return f"Gauge({self.name}{render_labels(self.labels)}={self.value})"


class Histogram:
    """A fixed-bucket histogram (cumulative on export, like Prometheus).

    Buckets are upper bounds; an implicit ``+Inf`` bucket catches the
    rest.  ``observe(value, count)`` is batch-aware: a train of ``n``
    same-sized observations costs one call.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count")

    def __init__(
        self,
        name: str,
        labels: dict[str, str],
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be a sorted non-empty sequence")
        self.name = name
        self.labels = labels
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # last = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float, count: int = 1) -> None:
        self.counts[bisect_left(self.buckets, value)] += count
        self.sum += value * count
        self.count += count

    def cumulative(self) -> list[tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, ending at +Inf."""
        total = 0
        out: list[tuple[float, int]] = []
        for bound, n in zip(self.buckets, self.counts):
            total += n
            out.append((bound, total))
        out.append((float("inf"), total + self.counts[-1]))
        return out

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name}{render_labels(self.labels)}, "
            f"count={self.count}, sum={self.sum:g})"
        )


class _NullCounter(Counter):
    """Shared no-op counter handed out by disabled registries."""

    def __init__(self) -> None:
        super().__init__("null", {})

    def inc(self, amount: int | float = 1) -> None:
        pass


class _NullGauge(Gauge):
    def __init__(self) -> None:
        super().__init__("null", {})

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram(Histogram):
    def __init__(self) -> None:
        super().__init__("null", {}, buckets=(1.0,))

    def observe(self, value: float, count: int = 1) -> None:
        pass


class LabelledCounters(dict):
    """``{label value: Counter}`` for one counter name, made by
    :meth:`MetricsRegistry.labelled`: each handle is created on its
    first lookup (``mapping[value]``), so a label value that is never
    counted exports no series.  ``get`` never creates.  With several
    labels the key is the tuple of their values, in order."""

    __slots__ = ("_make",)

    def __init__(self, make) -> None:
        super().__init__()
        self._make = make

    def __missing__(self, key) -> Counter:
        handle = self[key] = self._make(key)
        return handle


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """The single source of truth for run-time statistics.

    Args:
        enabled: when False every lookup returns the shared null handle,
            making the entire instrumentation layer free.

    Handles are cached: asking twice for the same (name, labels) pair
    returns the same object, so owners may re-look-up instead of caching
    themselves (caching is still cheaper on hot paths).
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}

    @staticmethod
    def _key(name: str, labels: dict[str, str]) -> tuple:
        return (name, tuple(sorted(labels.items())))

    def counter(self, name: str, **labels: str) -> Counter:
        if not self.enabled:
            return NULL_COUNTER
        key = self._key(name, labels)
        handle = self._counters.get(key)
        if handle is None:
            handle = self._counters[key] = Counter(name, labels)
        return handle

    def labelled(self, name: str, *labels: str, **fixed: str) -> LabelledCounters:
        """The handles of counter ``name`` keyed by the values of
        ``labels`` (a tuple of values for several), every one of them
        also carrying the ``fixed`` labels: the owner's cache for a
        counter it updates per stream, input or peer."""
        single = len(labels) == 1
        return LabelledCounters(lambda key: self.counter(
            name, **fixed, **dict(zip(labels, (key,) if single else key))
        ))

    def gauge(self, name: str, **labels: str) -> Gauge:
        if not self.enabled:
            return NULL_GAUGE
        key = self._key(name, labels)
        handle = self._gauges.get(key)
        if handle is None:
            handle = self._gauges[key] = Gauge(name, labels)
        return handle

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        if not self.enabled:
            return NULL_HISTOGRAM
        key = self._key(name, labels)
        handle = self._histograms.get(key)
        if handle is None:
            handle = self._histograms[key] = Histogram(name, labels, buckets=buckets)
        return handle

    # -- reads -----------------------------------------------------------------

    def value(self, name: str, **labels: str) -> float:
        """Current value of a counter or gauge (0 if never created)."""
        key = self._key(name, labels)
        if key in self._counters:
            return self._counters[key].value
        if key in self._gauges:
            return self._gauges[key].value
        return 0

    def counters_named(self, name: str) -> Iterator[Counter]:
        """All counter handles sharing a metric name (any labels)."""
        for (metric, _), handle in sorted(self._counters.items()):
            if metric == name:
                yield handle

    def total(self, name: str) -> float:
        """Sum of a counter across all label sets."""
        return sum(handle.value for handle in self.counters_named(name))

    def label_values(self, name: str, label: str) -> dict[str, float]:
        """``{label_value: counter_value}`` for one counter name/label."""
        out: dict[str, float] = {}
        for handle in self.counters_named(name):
            if label in handle.labels:
                out[handle.labels[label]] = out.get(handle.labels[label], 0) + handle.value
        return out

    # -- export ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-able, deterministically ordered view of every metric."""
        counters = {
            f"{h.name}{render_labels(h.labels)}": h.value
            for h in self._counters.values()
        }
        gauges = {
            f"{h.name}{render_labels(h.labels)}": h.value
            for h in self._gauges.values()
        }
        histograms = {}
        for h in self._histograms.values():
            histograms[f"{h.name}{render_labels(h.labels)}"] = {
                "buckets": [
                    ["+Inf" if bound == float("inf") else bound, n]
                    for bound, n in h.cumulative()
                ],
                "sum": h.sum,
                "count": h.count,
            }
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": dict(sorted(histograms.items())),
        }

    def clear(self) -> None:
        """Drop every handle (a fresh registry without rebinding owners
        is usually wrong — prefer creating a new registry)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"MetricsRegistry({len(self)} metrics, {state})"
