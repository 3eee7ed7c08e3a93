"""Shedding behaviour inside scenario runs.

Two families of guarantees:

* **Replay equivalence** — a scenario run is the schedule its engine
  logged: :func:`repro.reference.replay` of the decision log, with the
  shedder's coin flips taken from the log, reproduces every output
  stream in order, the virtual clock, the step count and the per-box
  traffic, even with a probabilistic shedder in the loop.  Keeping the
  log changes nothing the run reports.
* **QoS-driven ordering** — when the shedder does engage, drops must
  follow the declared loss curves: the low-importance bronze tenant
  absorbs the overload, the gold tenant is protected, and under a
  Zipf-skewed flash crowd the shed stays within the declared budget.
"""

import pytest

from repro.reference import box_stats, replay
from repro.workloads.scenarios import (
    ScenarioRunner,
    make_scenario,
    run_scenario,
    scenario_names,
)
from repro.workloads.slo import shed_fraction

from tests.core.test_reference import rows_of, traffic

SCALE = 0.1
SEED = 42


def logged_run(name):
    """One scenario run with the decision log kept, and its log."""
    runner = ScenarioRunner(make_scenario(name, scale=SCALE), seed=SEED)
    runner.engine.decision_log = []
    return runner.run(), runner.engine.decision_log


class TestModeEquivalence:
    """The two modes are the engine's run and the replay of its log."""

    @pytest.mark.parametrize("name", ["tenant_mix", "flash_crowd"])
    def test_accounting_identical_across_modes(self, name):
        result, log = logged_run(name)
        assert result.shed > 0, "scenario must actually shed to be a real test"
        reference = replay(make_scenario(name, scale=SCALE).build()[0], log)
        engine = result.engine
        assert rows_of(engine.outputs) == rows_of(reference.outputs)
        assert engine.clock == reference.clock
        assert engine.steps == reference.steps
        assert traffic(box_stats(engine.network)) == traffic(reference.boxes)
        assert result.delivered == sum(map(len, reference.outputs.values()))

    @pytest.mark.parametrize("name", ["tenant_mix", "flash_crowd"])
    def test_full_summary_identical_across_modes(self, name):
        # Per-objective observed values (trace latencies, staleness,
        # recovery) agree to the last digit with the log on and off.
        logged, _log = logged_run(name)
        assert logged.summary() == run_scenario(name, scale=SCALE, seed=SEED).summary()

    def test_metrics_snapshots_identical_across_modes(self):
        logged, _log = logged_run("tenant_mix")
        plain = run_scenario("tenant_mix", scale=SCALE, seed=SEED)
        assert logged.registry.snapshot() == plain.registry.snapshot()


class TestDeliveredAccounting:
    @pytest.mark.parametrize("name", scenario_names())
    def test_no_tuple_unaccounted(self, name):
        # offered == admitted + shed + outage-dropped, and the delivered
        # counter matches what actually reached the output streams.
        scenario = make_scenario(name, scale=SCALE)
        result = run_scenario(name, scale=SCALE, seed=SEED)
        offered = sum(len(stream) for stream in scenario.traffic(SEED).values())
        outage = int(result.registry.total("workload.outage.dropped"))
        assert result.ingested + result.shed + outage == offered
        emitted = sum(len(tups) for tups in result.engine.outputs.values())
        assert result.delivered == emitted
        assert result.engine.queued_counts == {} or all(
            n == 0 for n in result.engine.queued_counts.values()
        ), "run must drain completely"


class TestQoSOrdering:
    def test_bronze_absorbs_overload_before_gold(self):
        result = run_scenario("tenant_mix", scale=SCALE, seed=SEED)
        gold = shed_fraction(result.registry, "gold")
        bronze = shed_fraction(result.registry, "bronze")
        assert bronze is not None and bronze > 0.1
        assert gold is not None
        assert bronze > 4 * gold

    def test_ordering_holds_across_seeds(self):
        for seed in (1, 7, 99):
            result = run_scenario("tenant_mix", scale=SCALE, seed=seed)
            gold = shed_fraction(result.registry, "gold") or 0.0
            bronze = shed_fraction(result.registry, "bronze") or 0.0
            assert bronze >= gold, seed

    def test_zipf_flash_crowd_sheds_within_budget(self):
        result = run_scenario("flash_crowd", scale=SCALE, seed=SEED)
        assert result.shed > 0
        fraction = shed_fraction(result.registry)
        assert fraction is not None and fraction <= 0.2
        by_name = {obj.slo.name: obj for obj in result.report.objectives}
        assert by_name["shed_budget"].passed

    def test_shedding_can_be_disabled(self):
        scenario = make_scenario("tenant_mix", scale=SCALE)
        scenario.shedding = False
        result = ScenarioRunner(scenario, seed=SEED).run()
        assert result.shed == 0
        assert result.delivered == result.ingested
