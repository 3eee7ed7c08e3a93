"""Randomized fault-injection scenarios with exact replay.

A scenario is fully described by a :class:`ScenarioSpec` — seed,
topology, k, length — and runs deterministically: the seed derives the
fault plan, the runner applies it at fixed points, and every observable
action is appended to a text ``trace``.  Running the same spec twice
yields a byte-identical trace, which is what makes any failing schedule
in a sweep replayable in isolation.

Two runners:

* :func:`run_chain_scenario` — the HA world (:mod:`repro.ha`):
  crash/restart/partition schedules over a server DAG, checked against
  the paper's k-safety, truncation, and convergence invariants
  (:mod:`repro.sim.invariants`);
* :func:`run_overlay_scenario` — the Aurora* overlay world:
  crash/skew/message-drop schedules under the heartbeat monitor,
  checked for detection latency and end-state convergence.

:func:`sweep_chain_scenarios` fans one master seed out into N child
scenarios (mixed topologies and k) and aggregates survival statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import random

from repro.ha.chain import ServerChain, StatelessOp, WindowOp
from repro.ha.flow import FlowProtocol
from repro.ha.recovery import fail_server, recover
from repro.sim.faults import (
    CRASH,
    HEAL,
    PARTITION,
    RESTART,
    FaultPlan,
    generate_chain_plan,
)
from repro.sim.invariants import (
    TruncationGuard,
    check_convergence,
    check_delivery,
    delivered_counter,
)


# -- chain topologies ---------------------------------------------------------------

def _double(v):
    return v * 2


def _increment(v):
    return v + 1


def _identity(v):
    return v


def _tag_left(v):
    return ("L", v)


def build_linear3(k: int) -> ServerChain:
    """src -> map -> window(5, sum) -> identity (terminal)."""
    chain = ServerChain(k=k)
    chain.add_source("src")
    chain.add_server("s1", [StatelessOp(_double)])
    chain.add_server("s2", [WindowOp(5, sum)])
    chain.add_server("s3", [StatelessOp(_identity)])
    chain.connect("src", "s1")
    chain.connect("s1", "s2")
    chain.connect("s2", "s3")
    return chain


def build_deep4(k: int) -> ServerChain:
    """src -> map -> window(4, sum) -> map -> identity (terminal)."""
    chain = ServerChain(k=k)
    chain.add_source("src")
    chain.add_server("s1", [StatelessOp(_double)])
    chain.add_server("s2", [WindowOp(4, sum)])
    chain.add_server("s3", [StatelessOp(_increment)])
    chain.add_server("s4", [StatelessOp(_identity)])
    chain.connect("src", "s1")
    chain.connect("s1", "s2")
    chain.connect("s2", "s3")
    chain.connect("s3", "s4")
    return chain


def build_diamond(k: int) -> ServerChain:
    """src -> head -> (left stateless, right windowed) -> tail."""
    chain = ServerChain(k=k)
    chain.add_source("src")
    chain.add_server("head", [StatelessOp(_identity)])
    chain.add_server("left", [StatelessOp(_tag_left)])
    chain.add_server("right", [WindowOp(3, len)])
    chain.add_server("tail", [StatelessOp(_identity)])
    chain.connect("src", "head")
    chain.connect("head", "left")
    chain.connect("head", "right")
    chain.connect("left", "tail")
    chain.connect("right", "tail")
    return chain


TOPOLOGIES = {
    "linear3": build_linear3,
    "deep4": build_deep4,
    "diamond": build_diamond,
}


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to reproduce one scenario exactly."""

    seed: int
    topology: str = "linear3"
    k: int = 1
    n_steps: int = 60
    flow_every: int = 7

    def describe(self) -> str:
        return (
            f"scenario seed={self.seed} topology={self.topology} "
            f"k={self.k} steps={self.n_steps} flow={self.flow_every}"
        )


@dataclass
class ScenarioResult:
    """One scenario's outcome: trace, violations, and survival stats."""

    spec: ScenarioSpec
    plan: FaultPlan
    trace: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def trace_text(self) -> str:
        """The event trace as one canonical string (byte-comparable)."""
        return "\n".join(self.trace)


def _drive_baseline(spec: ScenarioSpec) -> "random.Counter":
    """Failure-free run of the same inputs: the k-safety reference."""
    from collections import Counter

    chain = TOPOLOGIES[spec.topology](spec.k)
    protocol = FlowProtocol(chain)
    terminal = chain.terminal()
    for i in range(spec.n_steps):
        chain.push("src", i)
        chain.pump()
        if spec.flow_every and (i + 1) % spec.flow_every == 0:
            protocol.round()
    protocol.round()
    return Counter(repr(t.value) for t in chain.delivered.get(terminal, []))


def run_chain_scenario(
    spec: ScenarioSpec, plan: FaultPlan | None = None
) -> ScenarioResult:
    """Execute one fault schedule against a fresh chain and check every
    invariant.

    ``plan`` defaults to the schedule derived from ``spec.seed``;
    passing an explicit plan supports hand-crafted schedules (e.g. the
    beyond-k sanity tests).
    """
    baseline = _drive_baseline(spec)

    chain = TOPOLOGIES[spec.topology](spec.k)
    terminal = chain.terminal()
    if plan is None:
        plan = generate_chain_plan(
            seed=spec.seed,
            servers=sorted(chain.servers),
            edges=sorted(chain.in_flight),
            n_steps=spec.n_steps,
            k=spec.k,
        )
    guard = TruncationGuard(chain)
    protocol = FlowProtocol(chain)
    by_step = plan.by_step()

    result = ScenarioResult(spec=spec, plan=plan)
    trace = result.trace
    trace.append(spec.describe())
    trace.extend(plan.describe().splitlines())

    recoveries = 0
    tuples_replayed = 0
    tuples_reprocessed = 0
    peak_log = 0
    for i in range(spec.n_steps):
        for event in by_step.get(i, ()):
            if event.kind == CRASH:
                fail_server(chain, event.target[0])
                trace.append(f"@{i} crash {event.target[0]}")
            elif event.kind == RESTART:
                # recover() rebuilds *every* currently failed server in
                # topological order (a restart of one triggers the full
                # heartbeat-detection + replay pass).
                stats = recover(chain)
                recoveries += len(stats.servers_recovered)
                tuples_replayed += stats.tuples_replayed
                tuples_reprocessed += stats.tuples_reprocessed
                trace.append(
                    f"@{i} restart {event.target[0]}: recovered="
                    f"{stats.servers_recovered} replayed={stats.tuples_replayed} "
                    f"reprocessed={stats.tuples_reprocessed}"
                )
            elif event.kind == PARTITION:
                chain.block_edge(*event.target)
                trace.append(f"@{i} partition {event.target[0]}->{event.target[1]}")
            elif event.kind == HEAL:
                chain.unblock_edge(*event.target)
                delivered = chain.pump()
                trace.append(
                    f"@{i} heal {event.target[0]}->{event.target[1]} "
                    f"flushed={delivered}"
                )
            else:
                raise ValueError(f"chain world cannot apply fault kind {event.kind!r}")
        chain.push("src", i)
        chain.pump()
        if spec.flow_every and (i + 1) % spec.flow_every == 0:
            floors = protocol.round()
            trace.append(f"@{i} flow floors={sorted(floors.items())}")
        peak_log = max(peak_log, chain.total_log_size())
        trace.append(
            f"@{i} step delivered={len(chain.delivered.get(terminal, []))} "
            f"data={chain.data_messages} log={chain.total_log_size()}"
        )

    # Convergence epilogue: heal everything, recover stragglers, drain.
    chain.heal_all()
    chain.pump()
    if any(s.failed for s in chain.servers.values()):
        stats = recover(chain)
        recoveries += len(stats.servers_recovered)
        tuples_replayed += stats.tuples_replayed
        tuples_reprocessed += stats.tuples_reprocessed
        trace.append(
            f"@end recover stragglers={stats.servers_recovered} "
            f"replayed={stats.tuples_replayed}"
        )
    chain.pump()
    floors = protocol.round()
    trace.append(f"@end flow floors={sorted(floors.items())}")

    delivered = delivered_counter(chain, terminal)
    result.violations.extend(guard.violations)
    result.violations.extend(check_delivery(baseline, delivered, spec.describe()))
    result.violations.extend(check_convergence(chain, spec.describe()))

    duplicates = sum(s.duplicates_dropped for s in chain.servers.values())
    truncated = sum(
        n.tuples_truncated
        for n in list(chain.servers.values()) + list(chain.sources.values())
    )
    result.stats = {
        "crashes": plan.count(CRASH),
        "partitions": plan.count(PARTITION),
        "recoveries": recoveries,
        "tuples_replayed": tuples_replayed,
        "tuples_reprocessed": tuples_reprocessed,
        "duplicates_dropped": duplicates,
        "tuples_truncated": truncated,
        "truncations_checked": guard.truncations_checked,
        "delivered": sum(delivered.values()),
        "data_messages": chain.data_messages,
        "flow_messages": chain.flow_messages,
        "ack_messages": chain.ack_messages,
        "peak_log": peak_log,
    }
    trace.append(
        f"@end delivered={result.stats['delivered']} "
        f"replayed={tuples_replayed} duplicates={duplicates} "
        f"truncated={truncated} violations={len(result.violations)}"
    )
    return result


@dataclass
class SweepResult:
    """Aggregate outcome of a randomized scenario sweep."""

    master_seed: int
    results: list[ScenarioResult] = field(default_factory=list)

    @property
    def n_scenarios(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> list[ScenarioResult]:
        return [r for r in self.results if not r.ok]

    def total(self, stat: str) -> int:
        return sum(r.stats.get(stat, 0) for r in self.results)

    def summary(self) -> str:
        lines = [
            f"fault sweep: {self.n_scenarios} scenarios from master seed "
            f"{self.master_seed}, {len(self.failures)} invariant failure(s)",
            f"  crashes={self.total('crashes')} partitions={self.total('partitions')} "
            f"recoveries={self.total('recoveries')}",
            f"  replayed={self.total('tuples_replayed')} "
            f"reprocessed={self.total('tuples_reprocessed')} "
            f"duplicates_dropped={self.total('duplicates_dropped')}",
            f"  truncated={self.total('tuples_truncated')} "
            f"(checked {self.total('truncations_checked')} truncations) "
            f"delivered={self.total('delivered')}",
        ]
        for result in self.failures:
            lines.append(f"  FAILED: {result.spec.describe()}")
            lines.extend(f"    {violation}" for violation in result.violations)
        return "\n".join(lines)


def generate_specs(master_seed: int, n: int) -> list[ScenarioSpec]:
    """Derive N scenario specs from one master seed (stable order)."""
    rng = random.Random(master_seed)
    topologies = sorted(TOPOLOGIES)
    specs = []
    for _ in range(n):
        specs.append(
            ScenarioSpec(
                seed=rng.randrange(2**31),
                topology=topologies[rng.randrange(len(topologies))],
                k=rng.choice([1, 1, 2]),  # k=1 is the paper's common case
                n_steps=rng.randint(45, 80),
                flow_every=rng.choice([5, 7, 10]),
            )
        )
    return specs


def sweep_chain_scenarios(master_seed: int, n: int = 100) -> SweepResult:
    """Run N seed-derived scenarios; every invariant must hold in all."""
    sweep = SweepResult(master_seed=master_seed)
    for spec in generate_specs(master_seed, n):
        sweep.results.append(run_chain_scenario(spec))
    return sweep


# -- overlay world -------------------------------------------------------------------

@dataclass
class OverlayScenarioResult:
    """Outcome of one overlay/heartbeat fault scenario."""

    seed: int
    plan: FaultPlan
    trace_text: str
    violations: list[str] = field(default_factory=list)
    detections: list[tuple[float, str, str]] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


OVERLAY_HORIZON = 20.0    # virtual seconds of one heartbeat-world run
HEARTBEAT_INTERVAL = 0.1  # the monitor's heartbeat period
MISS_THRESHOLD = 3        # missed heartbeats that declare a node failed


def run_overlay_scenario(seed: int) -> OverlayScenarioResult:
    """One heartbeat-world schedule: crashes, skews and heartbeat drops
    against a 3-node Aurora* pipeline.

    Invariants checked:

    * every crash of a watched node is detected within
      ``deadline + 2*interval + max_skew`` of the failure instant (or
      the node was already considered failed);
    * after every fault window closes, the monitor converges — no node
      is still declared failed at the horizon;
    * the full simulator event trace is recorded, so two runs of the
      same seed compare byte-for-byte.
    """
    from repro.core.operators.map import Map
    from repro.core.query import QueryNetwork
    from repro.core.tuples import make_stream
    from repro.distributed.heartbeat import HeartbeatMonitor
    from repro.distributed.system import AuroraStarSystem
    from repro.sim import Simulator
    from repro.sim.faults import OverlayFaultInjector, generate_overlay_plan

    network = QueryNetwork("hb")
    network.add_box("b1", Map(lambda values: dict(values)))
    network.add_box("b2", Map(lambda values: dict(values)))
    network.add_box("b3", Map(lambda values: dict(values)))
    network.connect("in:src", "b1")
    network.connect("b1", "b2")
    network.connect("b2", "b3")
    network.connect("b3", "out:sink")

    sim = Simulator(record_trace=True)
    system = AuroraStarSystem(network, sim=sim)
    for name in ("n1", "n2", "n3"):
        system.add_node(name)
    system.deploy({"b1": "n1", "b2": "n2", "b3": "n3"})
    monitor = HeartbeatMonitor(
        system, interval=HEARTBEAT_INTERVAL, miss_threshold=MISS_THRESHOLD
    )
    deadline = HEARTBEAT_INTERVAL * MISS_THRESHOLD

    watched = sorted({pair[1] for pair in monitor.watch_pairs()})
    plan = generate_overlay_plan(
        seed=seed,
        nodes=sorted(system.nodes),
        horizon=OVERLAY_HORIZON,
        detection_deadline=deadline,
        max_skew_amount=deadline / 2,
        crashable=watched,
    )
    injector = OverlayFaultInjector(system, monitor)
    injector.install(plan)

    # Snapshot the monitor's view at each crash instant (scheduled after
    # install, so at equal times the crash itself applies first): a node
    # already declared failed — e.g. from a heartbeat-drop window — will
    # produce no *new* detection when it actually dies.
    crash_checks: list[tuple[str, float, bool]] = []

    def snapshot_crash(node: str, fail_time: float) -> None:
        crash_checks.append((node, fail_time, node in monitor.declared_failed()))

    for event in plan.events:
        if event.kind == CRASH:
            sim.schedule_at(event.time, snapshot_crash, event.target[0], event.time)

    monitor.start()
    system.schedule_source(
        "src", make_stream([{"v": i} for i in range(40)], spacing=OVERLAY_HORIZON / 50)
    )
    system.run(until=OVERLAY_HORIZON)

    violations = []
    bound = deadline + 2 * HEARTBEAT_INTERVAL + deadline / 2
    for node, fail_time, already_declared in crash_checks:
        if already_declared:
            continue
        detected = any(
            watched_name == node and fail_time <= when <= fail_time + bound
            for when, _watcher, watched_name in monitor.detections
        )
        if not detected:
            violations.append(
                f"seed {seed}: crash of {node} at t={fail_time:.3f} "
                f"not detected within {bound:.3f}s"
            )
    still_declared = monitor.declared_failed()
    if still_declared:
        violations.append(
            f"seed {seed}: monitor did not converge; still declared failed: "
            f"{sorted(still_declared)}"
        )

    return OverlayScenarioResult(
        seed=seed,
        plan=plan,
        trace_text=sim.trace_text(),
        violations=violations,
        detections=list(monitor.detections),
        stats={
            "crashes": plan.count(CRASH),
            "heartbeats_sent": monitor.heartbeats_sent,
            "messages_faulted": system.overlay.messages_faulted,
            "detections": len(monitor.detections),
            "events_processed": sim.events_processed,
        },
    )
