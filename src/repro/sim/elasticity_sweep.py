"""Seeded property harness for elastic auto-parallelism.

The headline verification for ``repro.core.elasticity``: over seeded
random pipelines × random traffic, a controller-driven run (splits,
re-splits, merges happening mid-stream) must be *indistinguishable* from
the reference semantics (:func:`repro.reference.execute` over the same
pipeline, untouched) —

* per-stream output multisets equal
  (:func:`repro.reference.output_diff`, on timestamp and values: the
  split-equivalence contract the PR 1 property tests established for
  static splits), and
* per-box counter reconciliation: the lifetime ``engine.box.tuples_in``
  total over the elastic box and every replica it ever had equals the
  reference box's count, and the router's in/routed/out counts agree —

and every seed must actually exercise the machinery (at least one split
and one merge; a seed whose controller never fires is a harness bug, not
a pass).

The crash harness runs the system plane on an :class:`AuroraStarSystem`
overlay and kills the replica-hosting node at a seeded time — sometimes
mid-transfer (forcing a rollback), sometimes after commit (forcing a
repair).  The invariant is the paper-faithful weakening: outputs missing
versus the reference are bounded by the controller's *declared* loss
(``elasticity.tuples_lost``), and a rollback loses nothing at all.

Used by ``tests/core/test_elasticity_property.py`` (10 seeds in the CI
smoke job via ``ELASTICITY_SEEDS``, 50 by default and nightly) and by
``benchmarks/run_elasticity_sweep.py`` for violation-report artifacts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.core.elasticity import (
    ElasticityController,
    ElasticityPolicy,
    EnginePlane,
    SystemPlane,
)
from repro.core.engine import AuroraEngine
from repro.core.operators.filter import Filter
from repro.core.operators.map import Map
from repro.core.operators.tumble import Tumble
from repro.core.query import QueryNetwork
from repro.core.scheduler import LongestQueueScheduler
from repro.core.tuples import StreamTuple
from repro.distributed.system import AuroraStarSystem
from repro.reference import execute, output_diff


# ---------------------------------------------------------------------------
# Random pipelines and traffic


def _passthrough(values: dict) -> dict:
    return dict(values)


def _double(values: dict) -> dict:
    out = dict(values)
    out["v"] = out["v"] * 2
    return out


def _positive(tup: StreamTuple) -> bool:
    return tup["v"] >= 0


def _mostly(tup: StreamTuple) -> bool:
    return tup["v"] % 10 != 0


def build_pipeline(seed: int, stateless_only: bool = False) -> tuple[QueryNetwork, str]:
    """A seeded random linear pipeline around one elastic box ``E``.

    ``in:src -> [pre]* -> E -> [post]? -> out:sink`` where E is a keyed
    Map, a selective Filter, or (unless ``stateless_only``) a count-mode
    Tumble grouped by ``k`` — the three eligibility classes.
    """
    rng = random.Random(seed * 7919 + 17)
    net = QueryNetwork()
    chain: list[str] = []
    for i in range(rng.randrange(0, 3)):
        box_id = f"pre{i}"
        op = (
            Filter(_positive, cost_per_tuple=0.0004)
            if rng.random() < 0.5
            else Map(_passthrough, cost_per_tuple=0.0004)
        )
        net.add_box(box_id, op)
        chain.append(box_id)
    kinds = ["map", "filter"] if stateless_only else ["map", "filter", "tumble"]
    kind = rng.choice(kinds)
    if kind == "map":
        elastic_op: Any = Map(_double, cost_per_tuple=0.004)
    elif kind == "filter":
        elastic_op = Filter(_mostly, cost_per_tuple=0.004)
    else:
        elastic_op = Tumble(
            "cnt",
            groupby=("k",),
            value_attr="v",
            mode="count",
            window_size=rng.randrange(2, 5),
            cost_per_tuple=0.004,
        )
    net.add_box("E", elastic_op)
    chain.append("E")
    if rng.random() < 0.5:
        net.add_box("post", Map(_passthrough, cost_per_tuple=0.0004))
        chain.append("post")
    net.connect("in:src", chain[0])
    for a, b in zip(chain, chain[1:]):
        net.connect(a, b)
    net.connect(chain[-1], "out:sink")
    return net, kind


@dataclass
class TrafficPhase:
    count: int
    burst: int
    hot_share: float  # probability a tuple lands on the phase's hot key
    burst_end: int = 0  # ramp target; 0 means flat

    def burst_at(self, progress: float) -> int:
        """Burst size at ``progress`` in [0, 1] through the phase."""
        if self.burst_end <= self.burst:
            return self.burst
        return int(self.burst + (self.burst_end - self.burst) * progress)


def make_traffic(seed: int) -> tuple[list[StreamTuple], list[TrafficPhase]]:
    """Three-phase seeded traffic: warm, ramping skewed burst, sparse tail.

    The hot phase *ramps* its burst size — a flash crowd that keeps
    growing forces the controller past its first split (which adds
    capacity and would otherwise settle inside the hysteresis band) into
    re-splits at k > 2.
    """
    rng = random.Random(seed * 104729 + 5)
    hot_burst = rng.randrange(24, 40)
    phases = [
        TrafficPhase(count=rng.randrange(80, 140), burst=rng.randrange(4, 8), hot_share=0.1),
        TrafficPhase(
            count=rng.randrange(220, 400),
            burst=hot_burst,
            hot_share=rng.uniform(0.55, 0.9),
            burst_end=int(hot_burst * rng.uniform(2.0, 3.0)),
        ),
        TrafficPhase(count=rng.randrange(60, 120), burst=rng.randrange(3, 6), hot_share=0.1),
    ]
    keys = [f"k{i}" for i in range(rng.randrange(8, 24))]
    hot = rng.choice(keys)
    tuples: list[StreamTuple] = []
    t = 0.0
    for phase in phases:
        for _ in range(phase.count):
            t += rng.uniform(0.0005, 0.002)
            k = hot if rng.random() < phase.hot_share else rng.choice(keys)
            tuples.append(StreamTuple({"k": k, "v": rng.randrange(-5, 100)}, timestamp=t))
    return tuples, phases


# ---------------------------------------------------------------------------
# Engine-plane sweep


@dataclass
class SeedReport:
    seed: int
    kind: str = ""
    ok: bool = True
    violations: list[str] = field(default_factory=list)
    splits: int = 0
    resplits: int = 0
    merges: int = 0
    rollbacks: int = 0
    repairs: int = 0
    declared_lost: int = 0
    missing: int = 0
    extra: int = 0
    max_replicas_seen: int = 1

    def fail(self, message: str) -> None:
        self.ok = False
        self.violations.append(message)

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def run_engine_seed(seed: int) -> SeedReport:
    """One property-harness seed on the engine plane.

    Drives bursty three-phase traffic through a random pipeline with the
    controller probing between bursts, then checks the full equivalence
    contract against a reference run.  Shedding is off, so the contract
    is *exact* equality, not a bound.
    """
    report = SeedReport(seed=seed)
    rng = random.Random(seed * 31337 + 3)
    net, kind = build_pipeline(seed)
    report.kind = kind
    tuples, phases = make_traffic(seed)
    engine = AuroraEngine(net, scheduler=LongestQueueScheduler(), load_window=0.02)
    policy = ElasticityPolicy(
        high_water=rng.uniform(0.25, 0.45),
        low_water=rng.uniform(0.08, 0.18),
        skew_factor=rng.uniform(1.2, 1.6),
        cooldown=rng.uniform(0.01, 0.04),
        max_replicas=rng.randrange(3, 5),
        capacity_per_replica=rng.uniform(0.3, 0.6),
    )
    controller = ElasticityController(
        EnginePlane(engine), policy, metrics=engine.metrics
    )
    group = controller.watch("E", None if kind == "tumble" else ("k",))
    steps_per_burst = rng.randrange(2, 5)

    index = 0
    start = 0
    for phase in phases:
        start = index
        end = index + phase.count
        while index < end:
            burst = min(phase.burst_at((index - start) / phase.count), end - index)
            for tup in tuples[index:index + burst]:
                engine.push("src", StreamTuple(dict(tup.values), timestamp=tup.timestamp))
            index += burst
            controller.probe()
            if group.split:
                report.max_replicas_seen = max(
                    report.max_replicas_seen, len(group.replicas)
                )
            for _ in range(steps_per_burst):
                engine.step()

    # Drain-down: probe with load falling so the controller merges back,
    # then settle.  The engine clock freezes once idle, so pass an
    # explicitly advancing ``now`` — otherwise the cooldown gate (now -
    # last_action < cooldown) would block every probe forever.
    for i in range(64):
        engine.run_until_idle()
        controller.probe(engine.clock + (i + 1) * policy.cooldown)
        if not engine.queued_counts and not group.split:
            break
    engine.run_until_idle()
    engine.flush()
    engine.run_until_idle()
    if group.split:
        report.fail("controller never merged back to a single box")

    metrics = engine.metrics
    report.splits = int(metrics.total("elasticity.splits"))
    report.resplits = int(metrics.total("elasticity.resplits"))
    report.merges = int(metrics.total("elasticity.merges"))
    if report.splits + report.resplits == 0:
        report.fail("vacuous seed: controller never split")
    if report.merges == 0:
        report.fail("vacuous seed: controller never merged")

    ref_net, _ = build_pipeline(seed)
    missing, extra = output_diff(
        execute(ref_net, {"src": tuples})["sink"], engine.outputs["sink"]
    )
    report.missing = sum(missing.values())
    report.extra = sum(extra.values())
    if missing or extra:
        report.fail(
            f"output multiset mismatch: {report.missing} missing, "
            f"{report.extra} extra (e.g. {list((missing or extra).items())[:3]})"
        )

    per_box = metrics.label_values("engine.box.tuples_in", "box")
    elastic_in = int(
        sum(v for b, v in per_box.items() if b == "E" or b.startswith("E__r"))
    )
    ref_e_in = ref_net.boxes["E"].tuples_in
    if elastic_in != ref_e_in:
        report.fail(
            f"counter reconciliation: elastic-group tuples_in {elastic_in} "
            f"!= reference {ref_e_in}"
        )
    per_box_out = metrics.label_values("engine.box.tuples_out", "box")
    router_in = int(per_box.get("E__part", 0))
    router_out = int(per_box_out.get("E__part", 0))
    if router_in != router_out:
        report.fail(f"router dropped tuples: in={router_in} out={router_out}")
    return report


# ---------------------------------------------------------------------------
# System-plane crash sweep


def run_crash_seed(seed: int) -> SeedReport:
    """One mid-rewrite fault-injection seed on the system plane.

    A stateless pipeline deploys on a 3-node Aurora* overlay; the
    controller (probing on the simulator clock) splits the elastic box
    across nodes, and a seeded fault kills the newest replica's node —
    landing inside the transfer window on some seeds (the prepared
    replica must roll back, losing nothing) and after the commit on
    others (repair must excise it, declaring the loss).  The invariant:
    reference outputs missing from the run are bounded by the declared
    ``elasticity.tuples_lost``, and nothing unexplained appears.
    """
    report = SeedReport(seed=seed)
    rng = random.Random(seed * 65537 + 11)
    net, kind = build_pipeline(seed, stateless_only=True)
    report.kind = f"{kind}/system"
    tuples, _ = make_traffic(seed)

    system = AuroraStarSystem(net)
    for name in ("n0", "n1", "n2"):
        system.add_node(name, cpu_capacity=1.0)
    system.deploy({box_id: "n0" for box_id in net.boxes})
    system.bind_input("src", "n0")

    policy = ElasticityPolicy(
        high_water=rng.uniform(0.010, 0.025),
        low_water=rng.uniform(0.002, 0.005),
        cooldown=rng.uniform(0.01, 0.03),
        max_replicas=3,
        transfer_delay=rng.uniform(0.05, 0.25),
        settle_delay=0.3,
    )
    plane = SystemPlane(system, nodes=["n1", "n2"], load_window=1.0)
    controller = ElasticityController(plane, policy, metrics=system.metrics)
    group = controller.watch("E", ("k",))

    for tup in tuples:
        system.sim.schedule_at(
            tup.timestamp, system.push, "src",
            StreamTuple(dict(tup.values), timestamp=tup.timestamp),
        )
    horizon = tuples[-1].timestamp

    probe_every = 0.02

    def probe_tick() -> None:
        controller.probe()
        if group.split:
            report.max_replicas_seen = max(report.max_replicas_seen, len(group.replicas))
        if system.sim.now < horizon + 20 * policy.settle_delay or group.pending:
            system.sim.schedule(probe_every, probe_tick)

    system.sim.schedule(probe_every, probe_tick)

    # Seeded mid-rewrite crash: aimed around the burst phase, jittered
    # so across the corpus it lands before, inside, and after transfer
    # windows.  The node recovers later so end-of-run drains complete.
    crash_at = rng.uniform(0.15, 0.7) * horizon
    victim = rng.choice(["n1", "n2"])
    system.sim.schedule_at(crash_at, system.nodes[victim].fail)
    system.sim.schedule_at(
        crash_at + rng.uniform(0.3, 0.6) * horizon, system.nodes[victim].recover
    )

    system.run(until=horizon + 40 * policy.settle_delay)
    system.flush()

    metrics = system.metrics
    report.splits = int(metrics.total("elasticity.splits"))
    report.resplits = int(metrics.total("elasticity.resplits"))
    report.merges = int(metrics.total("elasticity.merges"))
    report.rollbacks = int(metrics.total("elasticity.rollbacks"))
    report.repairs = int(metrics.total("elasticity.repairs"))
    report.declared_lost = int(metrics.total("elasticity.tuples_lost"))
    if report.splits + report.resplits == 0:
        report.fail("vacuous crash seed: controller never split")

    ref_net, _ = build_pipeline(seed, stateless_only=True)
    missing, extra = output_diff(
        execute(ref_net, {"src": tuples})["sink"], system.outputs.get("sink", [])
    )
    report.missing = sum(missing.values())
    report.extra = sum(extra.values())
    if report.extra:
        report.fail(f"unexplained extra outputs: {report.extra}")
    if report.missing > report.declared_lost:
        report.fail(
            f"tuple loss beyond declared shed: {report.missing} missing "
            f"> {report.declared_lost} declared"
        )
    return report


# ---------------------------------------------------------------------------
# Sweep drivers


def run_engine_sweep(seeds: int, start: int = 0) -> dict:
    reports = [run_engine_seed(s) for s in range(start, start + seeds)]
    return _summarize("engine", reports)


def run_crash_sweep(seeds: int, start: int = 0) -> dict:
    reports = [run_crash_seed(s) for s in range(start, start + seeds)]
    summary = _summarize("crash", reports)
    # Corpus-level coverage: the jittered crash time must have produced
    # both outcomes somewhere, or the harness is not testing the
    # two-phase protocol at all.
    if sum(r.rollbacks for r in reports) + sum(r.repairs for r in reports) == 0:
        summary["ok"] = False
        summary["violations"].append(
            "corpus never hit a mid-rewrite crash (no rollback, no repair)"
        )
    return summary


def _summarize(name: str, reports: list[SeedReport]) -> dict:
    return {
        "sweep": name,
        "seeds": len(reports),
        "ok": all(r.ok for r in reports),
        "failed_seeds": [r.seed for r in reports if not r.ok],
        "violations": [f"seed {r.seed}: {v}" for r in reports for v in r.violations],
        "totals": {
            "splits": sum(r.splits for r in reports),
            "resplits": sum(r.resplits for r in reports),
            "merges": sum(r.merges for r in reports),
            "rollbacks": sum(r.rollbacks for r in reports),
            "repairs": sum(r.repairs for r in reports),
            "declared_lost": sum(r.declared_lost for r in reports),
            "missing": sum(r.missing for r in reports),
            "max_replicas_seen": max((r.max_replicas_seen for r in reports), default=1),
        },
        "reports": [r.to_dict() for r in reports],
    }
