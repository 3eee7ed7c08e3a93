"""The dual-backend oracle gate: simulator vs real worker processes.

These are the equivalence assertions the `parallel-equivalence` CI job
runs: for every oracle scenario, the deterministic virtual-time engine
and a >=2-process parallel plane must deliver the same per-stream
multiset of tuples, with per-box tuples_in/out counters reconciling.
"""

import pytest

from repro.parallel import ORACLE_SCENARIOS, run_dual
from repro.parallel.oracle import output_key, stream_multisets


def test_oracle_covers_at_least_three_registered_scenarios():
    from repro.workloads.scenarios import scenario_names

    assert len(ORACLE_SCENARIOS) >= 3
    assert set(ORACLE_SCENARIOS) <= set(scenario_names())


@pytest.mark.parametrize("name", ORACLE_SCENARIOS)
def test_backends_agree(name):
    result = run_dual(name, scale=0.25, seed=0, n_workers=2)
    assert result.ok, result.summary()
    assert result.n_workers == 2
    # The run must have actually delivered something, or the oracle is
    # vacuous.
    assert sum(len(v) for v in result.reference_outputs.values()) > 0


def test_backends_agree_at_three_workers():
    result = run_dual("iot_fleet", scale=0.25, seed=3, n_workers=3)
    assert result.ok, result.summary()


def test_backends_agree_across_seeds():
    for seed in (1, 2):
        result = run_dual("tenant_mix", scale=0.25, seed=seed, n_workers=2)
        assert result.ok, result.summary()


def test_mismatch_is_reported_not_hidden():
    # Corrupt one delivered tuple and confirm the comparison machinery
    # notices — the oracle must be falsifiable.
    result = run_dual("tenant_mix", scale=0.25, seed=0, n_workers=2)
    assert result.ok
    stream = next(s for s, v in result.parallel_outputs.items() if v)
    bags = stream_multisets(result.parallel_outputs)
    tampered = dict(bags)
    victim = next(iter(tampered[stream]))
    tampered[stream] = tampered[stream].copy()
    tampered[stream][victim] += 1
    assert tampered != stream_multisets(result.reference_outputs)


def test_output_key_distinguishes_values_and_timestamps():
    from repro.core.tuples import StreamTuple

    a = StreamTuple({"v": 1}, timestamp=1.0)
    assert output_key(a) == output_key(StreamTuple({"v": 1}, timestamp=1.0))
    assert output_key(a) != output_key(StreamTuple({"v": 2}, timestamp=1.0))
    assert output_key(a) != output_key(StreamTuple({"v": 1}, timestamp=2.0))


class TestOracleFalsifiability:
    """`run_dual` itself must fail when one backend lies (ISSUE 9).

    The earlier falsifiability test exercised the comparison helpers;
    these corrupt what the parallel backend *returns* — one mutated
    tuple, one dropped counter, one altered counter — and assert the
    oracle's verdict flips, not just that bags differ.  The real
    parallel run happens once (cached); each case monkeypatches
    `run_parallel` to serve a tampered copy.
    """

    _cache = {}

    @pytest.fixture()
    def parallel_payload(self):
        if "payload" not in self._cache:
            from repro.parallel.oracle import run_parallel

            self._cache["payload"] = run_parallel(
                "tenant_mix", scale=0.25, seed=0, n_workers=2
            )
        return self._cache["payload"]

    def _patched_dual(self, monkeypatch, outputs, boxes, wall):
        import repro.parallel.oracle as oracle

        monkeypatch.setattr(
            oracle, "run_parallel", lambda *a, **k: (outputs, boxes, wall)
        )
        return oracle.run_dual("tenant_mix", scale=0.25, seed=0, n_workers=2)

    def test_untampered_payload_passes(self, monkeypatch, parallel_payload):
        outputs, boxes, wall = parallel_payload
        result = self._patched_dual(monkeypatch, outputs, boxes, wall)
        assert result.ok, result.summary()

    def test_one_mutated_tuple_fails_the_oracle(self, monkeypatch, parallel_payload):
        from repro.core.tuples import StreamTuple

        outputs, boxes, wall = parallel_payload
        stream = next(s for s, v in outputs.items() if v)
        tampered = {s: list(v) for s, v in outputs.items()}
        victim = tampered[stream][0]
        values = dict(victim.values)
        first = next(iter(values))
        values[first] = "corrupted"
        tampered[stream][0] = StreamTuple(values, timestamp=victim.timestamp)
        result = self._patched_dual(monkeypatch, tampered, boxes, wall)
        assert not result.ok
        assert not result.outputs_match
        assert any(stream in m for m in result.mismatches)

    def test_one_dropped_counter_fails_the_oracle(self, monkeypatch, parallel_payload):
        outputs, boxes, wall = parallel_payload
        tampered = dict(boxes)
        victim = sorted(tampered)[0]
        del tampered[victim]
        result = self._patched_dual(monkeypatch, outputs, tampered, wall)
        assert not result.ok
        assert not result.counters_match
        assert any(victim in m for m in result.mismatches)

    def test_one_altered_counter_fails_the_oracle(self, monkeypatch, parallel_payload):
        outputs, boxes, wall = parallel_payload
        tampered = {b: dict(c) for b, c in boxes.items()}
        victim = sorted(tampered)[0]
        tampered[victim]["tuples_in"] += 1
        result = self._patched_dual(monkeypatch, outputs, tampered, wall)
        assert not result.ok
        assert not result.counters_match
        assert any(victim in m for m in result.mismatches)
