"""Deterministic fault injection: seeded plans of crashes and partitions.

FoundationDB-style simulation testing applied to the Aurora*/Medusa
stack: a :class:`FaultPlan` is a schedule of fault events — node
crashes and restarts, link partitions and heals, delivery delays, wire
drops, and clock-skewed heartbeats — generated from one RNG seed.  The
same seed always yields the same plan, and the scenario runners
(:mod:`repro.sim.scenarios`) execute plans deterministically, so any
failing schedule replays byte-for-byte from its seed alone.

Two worlds consume plans:

* the **HA chain world** (:mod:`repro.ha`), where virtual time is the
  tuple-step index and faults are server crashes, restarts, and edge
  partitions (the chain's links are reliable-FIFO, so wire loss only
  happens through server failure — the paper's TCP assumption);
* the **overlay world** (:mod:`repro.distributed`), where virtual time
  is the simulator clock and faults additionally include link delay
  spikes, heartbeat-window message drops, and clock skew, injected
  through :attr:`Overlay.fault_hook` and
  :attr:`HeartbeatMonitor.clock_skew`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Fault kinds.
CRASH = "crash"          # target: (node,)
RESTART = "restart"      # target: (node,)
PARTITION = "partition"  # target: (src, dst)
HEAL = "heal"            # target: (src, dst)
DELAY = "delay"          # target: (src, dst); param: extra seconds, until end event
DROP = "drop"            # target: (src, dst); drop window opens
UNDROP = "undrop"        # target: (src, dst); drop window closes
SKEW = "skew"            # target: (node,); param: heartbeat skew seconds (0 clears)

# Bounds of a random plan.
CHAIN_MAX_CRASHES = 3         # crashes per chain plan
CHAIN_MAX_PARTITIONS = 2      # partitions per chain plan
CHAIN_MAX_DOWN_STEPS = 12     # tuple steps per chain outage
CHAIN_MAX_BLOCKED_STEPS = 15  # tuple steps per chain partition
OVERLAY_MAX_CRASHES = 2       # crashes per overlay plan
OVERLAY_MAX_SKEWS = 2         # heartbeat clock skews per overlay plan
OVERLAY_MAX_DROP_WINDOWS = 2  # heartbeat-drop windows per overlay plan


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.  ``time`` is virtual time (overlay world)
    or the tuple-step index (chain world)."""

    time: float
    kind: str
    target: tuple[str, ...]
    param: float = 0.0

    def describe(self) -> str:
        extra = f" param={self.param:g}" if self.param else ""
        return f"{self.kind} {'->'.join(self.target)} @{self.time:g}{extra}"


@dataclass
class FaultPlan:
    """A deterministic, seed-derived schedule of fault events."""

    seed: int
    events: list[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.events = sorted(self.events, key=lambda e: e.time)

    def by_step(self) -> dict[int, list[FaultEvent]]:
        """Events grouped by integer step (chain-world execution)."""
        grouped: dict[int, list[FaultEvent]] = {}
        for event in self.events:
            grouped.setdefault(int(event.time), []).append(event)
        return grouped

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    def describe(self) -> str:
        """Canonical one-line-per-event text (stable across replays)."""
        lines = [f"plan seed={self.seed}"]
        lines.extend(event.describe() for event in self.events)
        return "\n".join(lines)


def _overlaps(intervals: list[tuple[float, float]], start: float, end: float) -> int:
    """How many intervals intersect [start, end]."""
    return sum(1 for s, e in intervals if not (end < s or e < start))


def generate_chain_plan(
    seed: int,
    servers: list[str],
    edges: list[tuple[str, str]],
    n_steps: int,
    k: int,
) -> FaultPlan:
    """A random crash/partition schedule for a :class:`ServerChain`.

    Guarantees the plan stays inside the paper's recoverable envelope:
    never more than ``k`` servers down at once (k-safety's precondition)
    and at most one active partition per edge.  Every crash gets a
    restart and every partition a heal, all strictly before
    ``n_steps - 1`` so the run can converge; candidate draws that would
    violate the envelope are discarded (rejection keeps the generator
    deterministic — acceptance depends only on previously accepted
    events).
    """
    if n_steps < 8:
        raise ValueError("n_steps too small for a meaningful schedule")
    rng = random.Random(seed)
    events: list[FaultEvent] = []

    down: dict[str, list[tuple[float, float]]] = {name: [] for name in servers}
    all_down: list[tuple[float, float]] = []
    n_crashes = rng.randint(1, CHAIN_MAX_CRASHES)
    for _ in range(n_crashes * 3):  # retry budget for rejected candidates
        if sum(len(v) for v in down.values()) >= n_crashes:
            break
        start = rng.randint(1, n_steps - 4)
        duration = rng.randint(1, CHAIN_MAX_DOWN_STEPS)
        end = min(start + duration, n_steps - 2)
        server = rng.choice(servers)
        if _overlaps(down[server], start - 1, end + 1):
            continue  # same server already scheduled around then
        if _overlaps(all_down, start, end) >= k:
            continue  # would exceed the k concurrent-failure envelope
        down[server].append((start, end))
        all_down.append((start, end))
        events.append(FaultEvent(start, CRASH, (server,)))
        events.append(FaultEvent(end, RESTART, (server,)))

    blocked: dict[tuple[str, str], list[tuple[float, float]]] = {e: [] for e in edges}
    n_partitions = rng.randint(0, CHAIN_MAX_PARTITIONS)
    for _ in range(n_partitions * 3):
        if sum(len(v) for v in blocked.values()) >= n_partitions:
            break
        start = rng.randint(1, n_steps - 4)
        duration = rng.randint(2, CHAIN_MAX_BLOCKED_STEPS)
        end = min(start + duration, n_steps - 2)
        edge = edges[rng.randrange(len(edges))]
        if _overlaps(blocked[edge], start - 1, end + 1):
            continue  # one active partition per edge at a time
        blocked[edge].append((start, end))
        events.append(FaultEvent(start, PARTITION, edge))
        events.append(FaultEvent(end, HEAL, edge))

    return FaultPlan(seed, events)


def generate_overlay_plan(
    seed: int,
    nodes: list[str],
    horizon: float,
    detection_deadline: float,
    max_skew_amount: float | None = None,
    crashable: list[str] | None = None,
) -> FaultPlan:
    """A random schedule for the overlay world (heartbeat detection).

    Crashes last comfortably longer than ``detection_deadline`` so the
    heartbeat monitor is obliged to notice each one; everything settles
    well before ``horizon`` so the final state can converge (no active
    skew, drops, or outages at the end).  ``crashable`` restricts crash
    targets (e.g. to nodes that actually have a watcher).
    """
    rng = random.Random(seed)
    events: list[FaultEvent] = []
    settle = 2.5 * detection_deadline
    latest = horizon - settle
    if latest <= 5.0 * detection_deadline:
        raise ValueError("horizon too short for the detection deadline")
    crash_targets = list(crashable) if crashable else list(nodes)

    down: dict[str, list[tuple[float, float]]] = {name: [] for name in nodes}
    for _ in range(rng.randint(1, OVERLAY_MAX_CRASHES) * 3):
        if sum(len(v) for v in down.values()) >= OVERLAY_MAX_CRASHES:
            break
        start = rng.uniform(detection_deadline, latest - 4.5 * detection_deadline)
        duration = rng.uniform(3.0 * detection_deadline, 4.0 * detection_deadline)
        end = min(start + duration, latest)
        node = rng.choice(crash_targets)
        if _overlaps(down[node], start - detection_deadline, end + detection_deadline):
            continue
        if _overlaps([iv for ivs in down.values() for iv in ivs], start, end):
            continue  # one node down at a time keeps watchers alive
        down[node].append((start, end))
        events.append(FaultEvent(start, CRASH, (node,)))
        events.append(FaultEvent(end, RESTART, (node,)))

    for _ in range(rng.randint(0, OVERLAY_MAX_SKEWS)):
        start = rng.uniform(0.0, latest / 2)
        end = rng.uniform(start + detection_deadline, latest)
        node = rng.choice(nodes)
        amount = rng.uniform(0.1, 1.0) * (
            max_skew_amount if max_skew_amount is not None else detection_deadline
        )
        events.append(FaultEvent(start, SKEW, (node,), param=amount))
        events.append(FaultEvent(end, SKEW, (node,), param=0.0))

    for _ in range(rng.randint(0, OVERLAY_MAX_DROP_WINDOWS)):
        start = rng.uniform(0.0, latest / 2)
        end = rng.uniform(start, latest)
        src = rng.choice(nodes)
        dst = rng.choice([n for n in nodes if n != src])
        events.append(FaultEvent(start, DROP, (src, dst)))
        events.append(FaultEvent(end, UNDROP, (src, dst)))

    return FaultPlan(seed, events)


class OverlayFaultInjector:
    """Applies a :class:`FaultPlan` to a live Aurora* deployment.

    Crashes and restarts are scheduled on the simulator against
    :class:`~repro.distributed.node.AuroraNode`; drop and delay windows
    install through :attr:`Overlay.fault_hook`; skew goes to the
    heartbeat monitor.  The injector keeps a deterministic ``log`` of
    every applied fault for trace comparison.
    """

    def __init__(self, system, monitor=None):
        self.system = system
        self.monitor = monitor
        self.log: list[str] = []
        self._drop_windows: set[tuple[str, str]] = set()
        self._delay_windows: dict[tuple[str, str], float] = {}
        self.messages_dropped = 0
        self.messages_delayed = 0
        system.overlay.fault_hook = self._filter

    def install(self, plan: FaultPlan) -> None:
        """Schedule every event of the plan on the system's simulator."""
        for event in plan.events:
            self.system.sim.schedule_at(event.time, self._apply, event)

    def _apply(self, event: FaultEvent) -> None:
        self.log.append(event.describe())
        kind, target = event.kind, event.target
        if kind == CRASH:
            self.system.nodes[target[0]].fail()
        elif kind == RESTART:
            self.system.nodes[target[0]].recover()
        elif kind == SKEW:
            if self.monitor is not None:
                self.monitor.set_skew(target[0], event.param)
        elif kind == DROP:
            self._drop_windows.add((target[0], target[1]))
        elif kind == UNDROP:
            self._drop_windows.discard((target[0], target[1]))
        elif kind == DELAY:
            self._delay_windows[(target[0], target[1])] = event.param
        elif kind == HEAL:
            self._delay_windows.pop((target[0], target[1]), None)
        else:
            raise ValueError(f"overlay world cannot apply fault kind {kind!r}")

    def _filter(self, src: str, dst: str, message) -> tuple[str, float]:
        if (src, dst) in self._drop_windows:
            self.messages_dropped += 1
            return ("drop", 0.0)
        delay = self._delay_windows.get((src, dst), 0.0)
        if delay:
            self.messages_delayed += 1
        return ("deliver", delay)
