"""The scenario runner's due-arrival batching is invisible.

After ``run_until`` for an arrival, the runner hands every following
arrival of the same input that is already due (timestamp <= the engine
clock, no fault or tick first) to one ``push_many`` call.  For each of
them ``run_until`` would do nothing and ``push`` would not move the
clock, so a run must be identical to one whose ``push_many`` moves time
to each arrival and pushes it alone — the runner's per-arrival loop —
for every registered scenario at two seeds.
"""

import pytest

from repro.core.engine import AuroraEngine
from repro.obs.export import dumps, snapshot
from repro.workloads.scenarios import (
    ScenarioRunner,
    make_scenario,
    run_scenario,
    scenario_names,
)

SCALE = 0.1


def fingerprint(result):
    engine = result.engine
    return {
        "summary": result.summary(),
        "snapshot": dumps(snapshot(result.registry)),
        "spans": [
            (s.trace_id, s.span_id, s.parent_id, s.name, s.node, s.start, s.end)
            for s in result.sink.spans
        ],
        "outputs": {
            name: [(t.values, t.timestamp) for t in tuples]
            for name, tuples in engine.outputs.items()
        },
        "clock": engine.clock,
        "steps": engine.steps,
    }


def run_per_arrival(name, seed, monkeypatch):
    """The same run with every batch taken apart again: each arrival
    gets its own ``run_until(timestamp)`` and ``push``, and must belong
    to the input it is pushed on."""
    scenario = make_scenario(name, SCALE)
    traffic = scenario.traffic(seed)
    owners = {input_name: {id(tup) for tup in tuples}
              for input_name, tuples in traffic.items()}
    scenario.traffic = lambda _seed: traffic

    def push_each(engine, input_name, tuples):
        admitted = 0
        for tup in tuples:
            assert id(tup) in owners[input_name]
            engine.run_until(tup.timestamp)
            admitted += engine.push(input_name, tup)
        return admitted

    monkeypatch.setattr(AuroraEngine, "push_many", push_each)
    result = ScenarioRunner(scenario, seed=seed).run()
    arrivals = sum(len(tuples) for tuples in traffic.values())
    outage = result.registry.total("workload.outage.dropped")
    assert result.ingested + result.shed + outage == arrivals
    return fingerprint(result)


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("name", scenario_names())
def test_batched_run_equals_per_arrival_run(name, seed, monkeypatch):
    batched = fingerprint(run_scenario(name, SCALE, seed))
    assert run_per_arrival(name, seed, monkeypatch) == batched


def test_flash_crowd_makes_fewer_ingest_calls_than_arrivals(monkeypatch):
    calls = {"push": 0, "push_many": 0, "offered": 0}
    real_push, real_many = AuroraEngine.push, AuroraEngine.push_many

    def push(engine, input_name, tup):
        calls["push"] += 1
        return real_push(engine, input_name, tup)

    def push_many(engine, input_name, tuples):
        calls["push_many"] += 1
        calls["offered"] += len(tuples)
        return real_many(engine, input_name, tuples)

    monkeypatch.setattr(AuroraEngine, "push", push)
    monkeypatch.setattr(AuroraEngine, "push_many", push_many)
    result = run_scenario("flash_crowd", SCALE, 42)
    arrivals = sum(
        len(tuples)
        for tuples in make_scenario("flash_crowd", SCALE).traffic(42).values()
    )
    # Every arrival was offered through push_many (flash_crowd has no
    # outage), none tuple by tuple, in fewer calls than arrivals.
    assert calls["offered"] == arrivals == result.ingested + result.shed
    assert calls["push"] == 0
    assert calls["push_many"] < arrivals
