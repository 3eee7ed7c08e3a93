"""Tests for the declarative scenario layer and its registry."""

import pytest

from repro.core.operators.filter import Filter
from repro.core.query import QueryNetwork
from repro.workloads.generators import UniformSource
from repro.workloads.scenarios import (
    CapacityFault,
    Fault,
    HookFault,
    InputOutageFault,
    Scenario,
    ScenarioRunner,
    make_scenario,
    run_scenario,
    scenario_names,
)
from repro.workloads.slo import SLO

SMOKE_SCALE = 0.1
SMOKE_SEED = 42


def tiny_scenario(**overrides):
    """A minimal hand-built scenario for runner-level assertions."""

    def build():
        net = QueryNetwork()
        net.add_box("f", Filter(lambda t: True, cost_per_tuple=0.001))
        net.connect("in:src", "f")
        net.connect("f", "out:sink")
        return net, {}

    def traffic(seed):
        return {"src": UniformSource(50.0, lambda i: {"i": i},
                                     seed=seed).generate(duration=2.0)}

    spec = dict(
        name="tiny",
        description="minimal pipeline",
        build=build,
        traffic=traffic,
        slos=[SLO("shed", "shed_fraction", 1.0)],
        duration=2.0,
    )
    spec.update(overrides)
    return Scenario(**spec)


class TestRegistry:
    def test_at_least_five_scenarios(self):
        assert len(scenario_names()) >= 5

    def test_every_scenario_declares_the_core_objectives(self):
        # The issue's floor: >= 3 SLOs per scenario, covering a latency
        # percentile, a shed-fraction budget and a fault-recovery bound.
        for name in scenario_names():
            scenario = make_scenario(name, scale=SMOKE_SCALE)
            assert len(scenario.slos) >= 3, name
            kinds = {slo.kind for slo in scenario.slos}
            assert {"latency", "shed_fraction", "recovery"} <= kinds, name
            assert scenario.faults, f"{name}: no injected faults"
            names = [slo.name for slo in scenario.slos]
            assert len(names) == len(set(names)), f"{name}: duplicate SLO names"

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="available"):
            make_scenario("nope")

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            make_scenario(scenario_names()[0], scale=0.0)


class TestScenarioValidation:
    def test_fault_past_duration_rejected(self):
        with pytest.raises(ValueError, match="extends past duration"):
            tiny_scenario(faults=[CapacityFault(1.0, 3.0, 0.5)])

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            tiny_scenario(duration=0.0)

    def test_empty_fault_window_rejected(self):
        with pytest.raises(ValueError, match="empty fault window"):
            CapacityFault(2.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            CapacityFault(0.0, 1.0, 0.0)

    def test_drain_grace_defaults_to_twice_duration(self):
        assert tiny_scenario().drain_grace == 4.0


class TestRunnerMechanics:
    def test_capacity_fault_applies_and_restores(self):
        observed = {}

        def spy(runner, when):
            observed.setdefault(round(when, 2), runner.engine.cpu_capacity)

        scenario = tiny_scenario(
            faults=[CapacityFault(0.5, 1.0, 0.5)], on_tick=spy)
        result = ScenarioRunner(scenario, seed=1).run()
        assert result.engine.cpu_capacity == 1.0  # restored after clear
        assert observed[0.75] == 0.5  # halved inside the window
        assert observed[0.25] == 1.0  # untouched before it
        assert [f.kind for f in result.timeline.faults] == ["capacity"]

    def test_input_outage_drops_and_counts_arrivals(self):
        scenario = tiny_scenario(faults=[InputOutageFault(0.5, 1.5, "src")])
        result = ScenarioRunner(scenario, seed=1).run()
        dropped = result.registry.total("workload.outage.dropped")
        assert dropped > 0
        offered = len(scenario.traffic(1)["src"])
        assert result.ingested + int(dropped) == offered

    def test_hook_fault_runs_callbacks(self):
        calls = []
        scenario = tiny_scenario(faults=[HookFault(
            0.5, 1.0,
            lambda runner: calls.append("apply"),
            lambda runner: calls.append("clear"),
            kind="custom",
        )])
        result = ScenarioRunner(scenario, seed=1).run()
        assert calls == ["apply", "clear"]
        assert result.timeline.faults[0].kind == "custom"

    def test_base_fault_hooks_are_abstract(self):
        fault = Fault(0.0, 1.0)
        with pytest.raises(NotImplementedError):
            fault.apply(None)
        with pytest.raises(NotImplementedError):
            fault.clear(None)

    def test_setup_and_finish_hooks_fire(self):
        seen = []
        scenario = tiny_scenario(
            setup=lambda runner: seen.append("setup"),
            on_finish=lambda runner: seen.append("finish"),
        )
        ScenarioRunner(scenario, seed=1).run()
        assert seen == ["setup", "finish"]

    def test_probes_cover_run_and_drain(self):
        result = ScenarioRunner(tiny_scenario(), seed=1).run()
        times = [probe.time for probe in result.timeline.probes]
        assert times == sorted(times)
        assert times[0] <= 0.25 and times[-1] >= 2.0

    def test_everything_delivered_without_overload(self):
        result = ScenarioRunner(tiny_scenario(), seed=1).run()
        assert result.shed == 0
        assert result.delivered == result.ingested == 100
        assert result.report.passed


    def test_free_steps_are_not_mistaken_for_idle(self):
        """With no scheduling overhead and zero-cost boxes a step that
        ran a train consumes 0.0; the runner must keep stepping, not
        jump the clock over the queued work."""

        def build():
            net = QueryNetwork()
            net.add_box("f", Filter(lambda t: True, cost_per_tuple=0.0))
            net.connect("in:src", "f")
            net.connect("f", "out:sink")
            return net, {}

        scenario = tiny_scenario(
            build=build, scheduling_overhead=0.0, train_size=2)
        runner = ScenarioRunner(scenario, seed=1)
        arrivals = scenario.traffic(1)["src"][:7]
        for tup in arrivals:
            runner.engine.push("src", tup)
        runner.engine.run_until(arrivals[-1].timestamp + 0.5)
        assert runner.engine.queued_counts == {}
        assert len(runner.engine.outputs["sink"]) == 7
        assert runner.engine.clock == arrivals[-1].timestamp + 0.5


class TestDeterminism:
    @pytest.mark.parametrize("name", scenario_names())
    def test_same_seed_identical_summary(self, name):
        a = run_scenario(name, scale=SMOKE_SCALE, seed=SMOKE_SEED).summary()
        b = run_scenario(name, scale=SMOKE_SCALE, seed=SMOKE_SEED).summary()
        assert a == b

    def test_different_seeds_differ(self):
        a = run_scenario("tenant_mix", scale=SMOKE_SCALE, seed=1).summary()
        b = run_scenario("tenant_mix", scale=SMOKE_SCALE, seed=2).summary()
        assert a != b


class TestScenarioRuns:
    @pytest.mark.parametrize("name", scenario_names())
    def test_runs_and_reports_every_objective(self, name):
        result = run_scenario(name, scale=SMOKE_SCALE, seed=SMOKE_SEED)
        assert result.ingested > 0
        assert result.delivered > 0
        assert result.traces > 0
        summary = result.summary()
        assert len(summary["objectives"]) == len(
            make_scenario(name, scale=SMOKE_SCALE).slos)
        for obj in summary["objectives"]:
            assert obj["observed"] is not None, f"{name}/{obj['name']}"

    def test_faults_actually_bite(self):
        # The brownout must leave a visible backlog spike: some probe
        # inside or after the fault window sees more queued work than
        # the steady state before it.
        result = run_scenario("diurnal_checkout", scale=SMOKE_SCALE,
                              seed=SMOKE_SEED)
        fault = result.timeline.faults[0]
        before = [p.queued_work for p in result.timeline.probes
                  if p.time < fault.start]
        during = [p.queued_work for p in result.timeline.probes
                  if fault.start <= p.time < fault.end + 1.0]
        assert during and max(during) > max(before)


class TestElasticFlashCrowd:
    """The elastic scenario's SLOs must *require* the controller: the
    identical run with ``elasticity=None`` blows the shed budget."""

    def test_controller_absorbs_the_crowd(self):
        result = run_scenario(
            "elastic_flash_crowd", scale=SMOKE_SCALE, seed=SMOKE_SEED
        )
        assert result.report.passed, result.summary()["objectives"]
        assert result.registry.total("elasticity.splits") >= 1
        assert result.registry.total("elasticity.merges") >= 1
        # The controller merged all the way back down: no elastic
        # skeleton left in the network at the end of the run.
        assert "serve__part" not in result.engine.network.boxes
        assert "serve__gather" not in result.engine.network.boxes

    def test_shed_budget_fails_without_controller(self):
        import dataclasses

        scenario = dataclasses.replace(
            make_scenario("elastic_flash_crowd", scale=SMOKE_SCALE),
            elasticity=None,
        )
        result = ScenarioRunner(scenario, seed=SMOKE_SEED).run()
        by_name = {obj.slo.name: obj for obj in result.report.objectives}
        assert not by_name["shed_budget"].passed
        assert not by_name["scale_out"].passed
        assert not by_name["scale_in"].passed
        assert not result.report.passed
        # The base-provisioned node really did drop crowd traffic.
        assert result.shed > 0
