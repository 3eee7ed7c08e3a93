"""Deterministic synthetic stream sources.

All generators are seeded and produce plain lists of
:class:`~repro.core.tuples.StreamTuple` with monotone timestamps, so
any experiment can be replayed exactly.

Skewed key selection is delegated to
:class:`~repro.workloads.population.KeyedPopulation` — one shared
implementation of Zipf popularity, hot-key rotation and churn — instead
of per-generator ad-hoc weight tables.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from typing import Callable

from repro.core.tuples import StreamTuple
from repro.workloads.population import KeyedPopulation, zipf_weights

__all__ = [
    "zipf_weights",
    "UniformSource",
    "PoissonSource",
    "BurstySource",
    "RateCurveSource",
    "DiurnalSource",
    "FlashCrowdSource",
    "SensorSource",
    "SensorFleetSource",
    "StockQuoteSource",
    "NetworkFlowSource",
]

READING_NOISE = 0.5       # std. dev. of a reading's random-walk step
QUOTE_VOLATILITY = 0.002  # std. dev. of a quote's log-price step
FLOW_SKEW = 1.2           # Zipf skew of a flow record's source host


class _Source:
    """Shared machinery: seeded RNG + tuple assembly."""

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)


class UniformSource(_Source):
    """Evenly spaced tuples built from a row factory."""

    def __init__(self, rate: float, make_row: Callable[[int], dict], seed: int = 0):
        super().__init__(seed)
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self.make_row = make_row

    def generate(self, duration: float, start_time: float = 0.0) -> list[StreamTuple]:
        spacing = 1.0 / self.rate
        count = int(duration * self.rate)
        return [
            StreamTuple(self.make_row(i), timestamp=start_time + i * spacing)
            for i in range(count)
        ]


class PoissonSource(UniformSource):
    """Poisson arrivals with a row factory: a :class:`UniformSource`'s
    rate and rows, with exponential gaps."""

    def generate(self, duration: float, start_time: float = 0.0) -> list[StreamTuple]:
        tuples = []
        t = start_time
        i = 0
        while True:
            t += self.rng.expovariate(self.rate)
            if t >= start_time + duration:
                return tuples
            tuples.append(StreamTuple(self.make_row(i), timestamp=t))
            i += 1


class BurstySource(_Source):
    """On/off load spikes: the "time-varying load spikes" of Section 1.

    Alternates between a base rate and a burst rate with a fixed period
    and duty cycle (fraction of the period spent bursting).
    """

    def __init__(
        self,
        base_rate: float,
        burst_rate: float,
        period: float,
        duty: float,
        make_row: Callable[[int], dict],
        seed: int = 0,
    ):
        super().__init__(seed)
        if base_rate < 0 or burst_rate <= 0:
            raise ValueError("rates must be positive (base may be 0)")
        if period <= 0 or not 0.0 < duty < 1.0:
            raise ValueError("need period > 0 and duty in (0, 1)")
        self.base_rate = base_rate
        self.burst_rate = burst_rate
        self.period = period
        self.duty = duty
        self.make_row = make_row

    def rate_at(self, t: float) -> float:
        phase = math.fmod(t, self.period) / self.period
        return self.burst_rate if phase < self.duty else self.base_rate

    def generate(self, duration: float, start_time: float = 0.0) -> list[StreamTuple]:
        # Thinning: draw at the burst (max) rate, keep with p = rate/max.
        tuples = []
        t = start_time
        i = 0
        max_rate = max(self.burst_rate, self.base_rate)
        while True:
            t += self.rng.expovariate(max_rate)
            if t >= start_time + duration:
                return tuples
            if self.rng.random() < self.rate_at(t) / max_rate:
                tuples.append(StreamTuple(self.make_row(i), timestamp=t))
                i += 1


class RateCurveSource(_Source):
    """Inhomogeneous Poisson arrivals under an arbitrary rate curve.

    Generalizes :class:`BurstySource`'s thinning trick: draw candidate
    arrivals at ``peak_rate`` and keep each with probability
    ``rate_fn(t) / peak_rate``.  Any production traffic shape — diurnal
    cycles, ramps, flash crowds — is a rate curve.

    Args:
        rate_fn: instantaneous rate (tuples/second) as a function of
            absolute time.  Must never exceed ``peak_rate``.
        peak_rate: an upper bound on ``rate_fn`` (the thinning envelope).
        make_row: row factory, called with the tuple index.
    """

    def __init__(
        self,
        rate_fn: Callable[[float], float],
        peak_rate: float,
        make_row: Callable[[int], dict],
        seed: int = 0,
    ):
        super().__init__(seed)
        if peak_rate <= 0:
            raise ValueError("peak_rate must be positive")
        self.rate_fn = rate_fn
        self.peak_rate = peak_rate
        self.make_row = make_row

    def rate_at(self, t: float) -> float:
        return self.rate_fn(t)

    def generate(self, duration: float, start_time: float = 0.0) -> list[StreamTuple]:
        # ``-log(1.0 - random()) / peak`` is ``rng.expovariate(peak)``'s
        # own formula (CPython 3.10 to 3.13; tests/workloads pins it),
        # with the lookups hoisted out of the loop.
        draw, log = self.rng.random, math.log
        rate_fn, make_row = self.rate_fn, self.make_row
        peak = self.peak_rate
        ceiling = peak + 1e-9
        end = start_time + duration
        tuples: list[StreamTuple] = []
        t = start_time
        i = 0
        while True:
            t += -log(1.0 - draw()) / peak
            if t >= end:
                return tuples
            rate = rate_fn(t)
            if rate > ceiling:
                raise ValueError(
                    f"rate_fn({t:.3f}) = {rate:.3f} exceeds peak_rate {peak:.3f}"
                )
            if draw() < rate / peak:
                tuples.append(StreamTuple(make_row(i), timestamp=t))
                i += 1


def diurnal_rate(
    base_rate: float,
    peak_rate: float,
    period: float = 24.0,
    peak_at: float = 15.0,
) -> Callable[[float], float]:
    """A smooth day/night load curve (the classic production traffic
    shape): sinusoidal between ``base_rate`` (trough) and ``peak_rate``
    (peak), peaking at ``peak_at`` within each ``period``."""
    if peak_rate < base_rate:
        raise ValueError("peak_rate must be >= base_rate")
    if period <= 0:
        raise ValueError("period must be positive")
    mid = (peak_rate + base_rate) / 2.0
    amplitude = (peak_rate - base_rate) / 2.0

    def rate(t: float) -> float:
        phase = 2.0 * math.pi * (t - peak_at) / period
        return mid + amplitude * math.cos(phase)

    return rate


class DiurnalSource(RateCurveSource):
    """Poisson arrivals under a diurnal (day/night) rate curve."""

    def __init__(
        self,
        base_rate: float,
        peak_rate: float,
        make_row: Callable[[int], dict],
        period: float = 24.0,
        peak_at: float = 15.0,
        seed: int = 0,
    ):
        super().__init__(
            diurnal_rate(base_rate, peak_rate, period=period, peak_at=peak_at),
            peak_rate,
            make_row,
            seed=seed,
        )
        self.base_rate = base_rate
        self.period = period
        self.peak_at = peak_at


class FlashCrowdSource(RateCurveSource):
    """A base Poisson load with multiplicative flash-crowd windows and a
    rotating hot-key population.

    During each ``(start, end)`` crowd window the rate jumps to
    ``crowd_rate``; the keys the crowd hammers come from a
    :class:`KeyedPopulation` whose hot set rotates over time, so the
    same partition never stays hot for the whole run.

    Rows carry ``{"key": <population key>, "req": <index>}``.
    """

    def __init__(
        self,
        base_rate: float,
        crowd_rate: float,
        crowds: list[tuple[float, float]],
        population: KeyedPopulation,
        seed: int = 0,
    ):
        if crowd_rate < base_rate:
            raise ValueError("crowd_rate must be >= base_rate")
        for start, end in crowds:
            if end <= start:
                raise ValueError(f"empty crowd window ({start}, {end})")
        self.crowds = sorted(crowds)
        self.population = population
        # The windows' union as flat [start, end, start, end, ...] edges:
        # t is in some window exactly when an odd number of edges is <= t.
        edges: list[float] = []
        for start, end in self.crowds:
            if edges and start <= edges[-1]:
                edges[-1] = max(edges[-1], end)
            else:
                edges += (start, end)
        rates = (base_rate, crowd_rate)  # outside, inside a window
        self._edges, self._rates = edges, rates

        def rate(t: float) -> float:
            return rates[bisect_right(edges, t) & 1]

        super().__init__(rate, crowd_rate, self._row, seed=seed)

    def _row(self, i: int, at: float) -> dict:
        return {"key": self.population.sample(self.rng, at=at), "req": i}

    def generate(self, duration: float, start_time: float = 0.0) -> list[StreamTuple]:
        # RateCurveSource's thinning loop with ``rate_fn(t)`` read from
        # the same edges and rates inline (no call per candidate) and the
        # arrival time passed to the row (hot-key rotation is
        # time-driven).  Rows are built fresh, so the tuples take them as
        # they are.
        draw, log = self.rng.random, math.log
        row, from_parts = self._row, StreamTuple.from_parts
        edges, rates = self._edges, self._rates
        peak = self.peak_rate
        end = start_time + duration
        tuples: list[StreamTuple] = []
        t = start_time
        i = 0
        while True:
            t += -log(1.0 - draw()) / peak
            if t >= end:
                return tuples
            if draw() < rates[bisect_right(edges, t) & 1] / peak:
                tuples.append(from_parts(row(i, t), t))
                i += 1


class SensorSource(_Source):
    """Sensor readings: per-sensor random-walk values with Zipf-skewed
    reporting frequency.  Fields: sensor, value."""

    def __init__(
        self,
        n_sensors: int,
        rate: float,
        skew: float = 0.0,
        seed: int = 0,
    ):
        super().__init__(seed)
        if n_sensors < 1:
            raise ValueError("need at least one sensor")
        self.n_sensors = n_sensors
        self.rate = rate
        self.population = KeyedPopulation(n_sensors, skew=skew)
        self.weights = self.population.weights
        self._values = [20.0 + self.rng.random() * 5.0 for _ in range(n_sensors)]

    def generate(self, duration: float, start_time: float = 0.0) -> list[StreamTuple]:
        spacing = 1.0 / self.rate
        count = int(duration * self.rate)
        tuples = []
        for i in range(count):
            sensor = self.population.sample(self.rng)
            self._values[sensor] += self.rng.gauss(0.0, READING_NOISE)
            tuples.append(
                StreamTuple(
                    {"sensor": sensor, "value": round(self._values[sensor], 3)},
                    timestamp=start_time + i * spacing,
                )
            )
        return tuples


class SensorFleetSource(_Source):
    """An IoT fleet: skewed per-device reporting *with device churn*.

    Devices die and are replaced at a steady pace (every
    ``churn_every`` seconds a uniformly chosen device retires and a
    fresh id joins at the same popularity rank), so any state keyed by
    device id sees a slowly moving universe.  Fields: device, value.
    """

    def __init__(
        self,
        n_devices: int,
        rate: float,
        skew: float = 1.0,
        churn_every: float = 0.0,
        seed: int = 0,
    ):
        super().__init__(seed)
        if n_devices < 1:
            raise ValueError("need at least one device")
        if churn_every < 0:
            raise ValueError("churn_every must be non-negative")
        self.rate = rate
        self.churn_every = churn_every
        self.population = KeyedPopulation(n_devices, skew=skew)
        self._next_id = n_devices
        self._values: dict[int, float] = {
            d: 20.0 + self.rng.random() * 5.0 for d in range(n_devices)
        }

    @property
    def devices(self) -> list[int]:
        """Current fleet membership (rank order)."""
        return self.population.keys

    def generate(self, duration: float, start_time: float = 0.0) -> list[StreamTuple]:
        spacing = 1.0 / self.rate
        count = int(duration * self.rate)
        next_churn = (
            start_time + self.churn_every if self.churn_every > 0 else math.inf
        )
        tuples = []
        for i in range(count):
            t = start_time + i * spacing
            while t >= next_churn:
                retired = self.population.churn(self.rng, self._next_id)
                self._values.pop(retired, None)
                self._values[self._next_id] = 20.0 + self.rng.random() * 5.0
                self._next_id += 1
                next_churn += self.churn_every
            device = self.population.sample(self.rng)
            self._values[device] += self.rng.gauss(0.0, READING_NOISE)
            tuples.append(
                StreamTuple(
                    {"device": device, "value": round(self._values[device], 3)},
                    timestamp=t,
                )
            )
        return tuples


class StockQuoteSource(_Source):
    """Stock quotes (Section 4.4's example content).  Fields: sym, px, size."""

    def __init__(
        self,
        symbols: list[str],
        rate: float,
        skew: float = 1.0,
        seed: int = 0,
    ):
        super().__init__(seed)
        if not symbols:
            raise ValueError("need at least one symbol")
        self.symbols = list(symbols)
        self.rate = rate
        self.population = KeyedPopulation(self.symbols, skew=skew)
        self.weights = self.population.weights
        self._prices = {
            sym: 50.0 + 100.0 * self.rng.random() for sym in self.symbols
        }

    def generate(self, duration: float, start_time: float = 0.0) -> list[StreamTuple]:
        spacing = 1.0 / self.rate
        count = int(duration * self.rate)
        tuples = []
        for i in range(count):
            sym = self.population.sample(self.rng)
            self._prices[sym] *= math.exp(self.rng.gauss(0.0, QUOTE_VOLATILITY))
            tuples.append(
                StreamTuple(
                    {
                        "sym": sym,
                        "px": round(self._prices[sym], 2),
                        "size": self.rng.randrange(1, 20) * 100,
                    },
                    timestamp=start_time + i * spacing,
                )
            )
        return tuples


class NetworkFlowSource(_Source):
    """Network-monitoring flow records.  Fields: src, dst, bytes, proto."""

    PROTOCOLS = ("tcp", "udp", "icmp")

    def __init__(self, n_hosts: int, rate: float, seed: int = 0):
        super().__init__(seed)
        if n_hosts < 2:
            raise ValueError("need at least two hosts")
        self.n_hosts = n_hosts
        self.rate = rate
        self.population = KeyedPopulation(
            [f"10.0.0.{i}" for i in range(n_hosts)], skew=FLOW_SKEW
        )
        self.weights = self.population.weights

    def generate(self, duration: float, start_time: float = 0.0) -> list[StreamTuple]:
        spacing = 1.0 / self.rate
        count = int(duration * self.rate)
        tuples = []
        for i in range(count):
            src = self.population.sample(self.rng)
            dst = self.population.sample(self.rng)
            tuples.append(
                StreamTuple(
                    {
                        "src": src,
                        "dst": dst,
                        "bytes": int(self.rng.paretovariate(1.2) * 500),
                        "proto": self.rng.choice(self.PROTOCOLS),
                    },
                    timestamp=start_time + i * spacing,
                )
            )
        return tuples
