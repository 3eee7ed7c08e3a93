"""Property tests for the traffic generators, swept over 50 seeds.

Every scenario's SLO verdict rests on three generator properties:
*determinism* (same seed, same stream — byte for byte), *monotone
timestamps* (the engine's virtual clock never runs backwards), and
*rate conformance* (offered load actually matches the declared curve,
so a tuned SLO target means what it says).  Each property is asserted
across 50 seeds per source family.
"""

import math

import pytest

from repro.workloads.generators import (
    BurstySource,
    DiurnalSource,
    FlashCrowdSource,
    PoissonSource,
    RateCurveSource,
    SensorFleetSource,
    diurnal_rate,
)
from repro.workloads.population import KeyedPopulation

SEEDS = range(50)


def row(i):
    return {"i": i}


def make_sources(seed):
    """One representative of every stochastic source family."""
    return {
        "poisson": PoissonSource(120.0, row, seed=seed),
        "bursty": BurstySource(40.0, 400.0, 1.0, 0.25, row, seed=seed),
        "diurnal": DiurnalSource(50.0, 250.0, row, period=4.0,
                                 peak_at=2.0, seed=seed),
        "flash": FlashCrowdSource(
            60.0, 500.0, [(1.0, 1.5)],
            KeyedPopulation(30, skew=1.1, rotate_every=0.5), seed=seed),
        "fleet": SensorFleetSource(25, 150.0, skew=1.2, churn_every=0.2,
                                   seed=seed),
    }


def stream_fingerprint(tuples):
    return [(t.timestamp, sorted(t.values.items())) for t in tuples]


class TestSeededDeterminism:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_seed_same_stream(self, seed):
        first = make_sources(seed)
        second = make_sources(seed)
        for name in first:
            a = first[name].generate(duration=2.0)
            b = second[name].generate(duration=2.0)
            assert stream_fingerprint(a) == stream_fingerprint(b), name

    def test_different_seeds_differ(self):
        # Across all 50 seeds every Poisson stream must be distinct.
        prints = set()
        for seed in SEEDS:
            stream = PoissonSource(120.0, row, seed=seed).generate(duration=2.0)
            prints.add(tuple(t.timestamp for t in stream))
        assert len(prints) == len(SEEDS)


class TestMonotoneTimestamps:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_timestamps_never_run_backwards(self, seed):
        for name, source in make_sources(seed).items():
            stream = source.generate(duration=2.0, start_time=5.0)
            assert stream, name
            times = [t.timestamp for t in stream]
            assert all(a <= b for a, b in zip(times, times[1:])), name
            assert times[0] >= 5.0, name
            assert times[-1] < 7.0, name


class TestRateConformance:
    def test_poisson_count_within_4_sigma_every_seed(self):
        expected = 120.0 * 5.0
        band = 4.0 * math.sqrt(expected)
        for seed in SEEDS:
            n = len(PoissonSource(120.0, row, seed=seed).generate(duration=5.0))
            assert abs(n - expected) < band, seed

    def test_diurnal_mean_rate_over_one_period(self):
        # The sinusoid averages to (base + peak) / 2 over a full period.
        base, peak, period = 50.0, 250.0, 4.0
        expected = (base + peak) / 2.0 * period
        band = 5.0 * math.sqrt(expected)
        for seed in SEEDS:
            source = DiurnalSource(base, peak, row, period=period,
                                   peak_at=2.0, seed=seed)
            n = len(source.generate(duration=period))
            assert abs(n - expected) < band, seed

    def test_diurnal_peak_window_beats_trough_window(self):
        source = DiurnalSource(50.0, 250.0, row, period=4.0, peak_at=2.0, seed=0)
        stream = source.generate(duration=4.0)
        peak_n = sum(1 for t in stream if 1.5 <= t.timestamp < 2.5)
        trough_n = sum(1 for t in stream if t.timestamp < 0.5 or t.timestamp >= 3.5)
        assert peak_n > 2 * trough_n

    def test_flash_crowd_window_rate_every_seed(self):
        pop = KeyedPopulation(30, skew=1.1)
        for seed in SEEDS:
            source = FlashCrowdSource(60.0, 500.0, [(1.0, 2.0)], pop, seed=seed)
            stream = source.generate(duration=3.0)
            in_crowd = sum(1 for t in stream if 1.0 <= t.timestamp < 2.0)
            outside = len(stream) - in_crowd
            # crowd window: ~500 arrivals; the other 2s: ~120 total.
            assert abs(in_crowd - 500.0) < 5.0 * math.sqrt(500.0), seed
            assert abs(outside - 120.0) < 5.0 * math.sqrt(120.0), seed

    def test_bursty_average_rate_every_seed(self):
        base, burst, period, duty = 40.0, 400.0, 1.0, 0.25
        expected = (burst * duty + base * (1 - duty)) * 4.0
        band = 5.0 * math.sqrt(expected)
        for seed in SEEDS:
            source = BurstySource(base, burst, period, duty, row, seed=seed)
            n = len(source.generate(duration=4.0))
            assert abs(n - expected) < band, seed

    def test_fleet_rate_is_exact(self):
        for seed in SEEDS:
            stream = SensorFleetSource(25, 150.0, seed=seed).generate(duration=2.0)
            assert len(stream) == 300


class TestRateCurveEnvelope:
    def test_rate_fn_above_peak_raises(self):
        source = RateCurveSource(lambda t: 200.0, 100.0, row, seed=1)
        with pytest.raises(ValueError, match="exceeds peak_rate"):
            source.generate(duration=1.0)

    def test_peak_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            RateCurveSource(lambda t: 1.0, 0.0, row)

    def test_diurnal_rate_validation(self):
        with pytest.raises(ValueError):
            diurnal_rate(100.0, 50.0)
        with pytest.raises(ValueError):
            diurnal_rate(10.0, 50.0, period=0.0)

    def test_flash_crowd_validation(self):
        pop = KeyedPopulation(4)
        with pytest.raises(ValueError):
            FlashCrowdSource(100.0, 50.0, [], pop)
        with pytest.raises(ValueError):
            FlashCrowdSource(10.0, 50.0, [(2.0, 1.0)], pop)


class TestThinningDraws:
    """The thinning loops draw exactly what the textbook loop draws.

    They inline ``expovariate`` as ``-log(1.0 - random()) / rate`` and
    test flash-crowd windows by bisecting their edges; this reference
    calls ``random.Random.expovariate`` and the rate curve itself, so
    it pins both on whichever Python runs it.
    """

    @staticmethod
    def reference(source, duration, make_row):
        rng, tuples, t, i = source.rng, [], 0.0, 0
        while True:
            t += rng.expovariate(source.peak_rate)
            if t >= duration:
                return tuples
            if rng.random() < source.rate_fn(t) / source.peak_rate:
                tuples.append((t, make_row(i, t)))
                i += 1

    @pytest.mark.parametrize("seed", range(10))
    def test_flash_crowd_stream_is_the_reference_stream(self, seed):
        def make(windows):
            pop = KeyedPopulation(30, skew=1.1, rotate_every=0.5)
            return FlashCrowdSource(60.0, 500.0, windows, pop, seed=seed)

        # Overlapping and touching windows, listed out of order.
        windows = [(2.0, 2.5), (0.5, 1.0), (0.8, 1.2), (2.5, 2.7)]
        reference = make(windows)
        expected = self.reference(
            reference, 3.0,
            lambda i, t: {"key": reference.population.sample(reference.rng, at=t), "req": i},
        )
        stream = make(windows).generate(duration=3.0)
        assert [(t.timestamp, t.values) for t in stream] == expected
        assert reference.rate_at(0.9) == reference.rate_at(2.6) == 500.0
        assert reference.rate_at(1.2) == reference.rate_at(2.7) == 60.0

    @pytest.mark.parametrize("seed", range(10))
    def test_rate_curve_stream_is_the_reference_stream(self, seed):
        def make():
            return DiurnalSource(50.0, 250.0, row, period=4.0, peak_at=2.0, seed=seed)

        expected = self.reference(make(), 4.0, lambda i, t: row(i))
        stream = make().generate(duration=4.0)
        assert [(t.timestamp, t.values) for t in stream] == expected


class TestFleetChurn:
    def test_fleet_membership_moves(self):
        source = SensorFleetSource(10, 100.0, churn_every=0.1, seed=3)
        before = set(source.devices)
        stream = source.generate(duration=2.0)
        after = set(source.devices)
        assert before != after
        assert len(after) == 10
        assert source.population.replacements >= 15
        seen = {t.values["device"] for t in stream}
        assert seen - before  # replacement devices actually reported
