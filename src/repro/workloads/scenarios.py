"""Production-traffic scenarios scored against declared SLOs.

The protocol benchmarks exercise one mechanism at a time; a production
deployment faces all of them at once — diurnal load curves, flash
crowds hammering a rotating hot-key set, device churn, a federation of
participants trading contracts, analysts firing ad-hoc queries at
history — while operators watch latency percentiles and error budgets,
not mechanism counters.

A :class:`Scenario` is a declarative bundle: a query network builder, a
seeded traffic function, injected :class:`Fault` windows, and the
:class:`~repro.workloads.slo.SLO` list the run is scored against.  The
:class:`ScenarioRunner` drives the :class:`~repro.core.engine.AuroraEngine`
through the merged arrival/fault/probe event timeline entirely in
virtual time, so every run is deterministic and replayable from
``(scenario, seed)``.

Scenarios scale: :func:`make_scenario` takes a ``scale`` knob that
multiplies both offered rates and CPU capacity, so the *load shape*
(and therefore the declared SLO targets) is the same at CI smoke scale
and at the full nightly scale — only the population sizes grow.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.core.adhoc import run_adhoc
from repro.core.elasticity import (
    ElasticityController,
    ElasticityPolicy,
    ElasticitySpec,
    EnginePlane,
)
from repro.core.engine import AuroraEngine
from repro.core.operators import CaseFilter, Filter, Map, Tumble
from repro.core.qos import QoSSpec, latency_qos, loss_qos
from repro.core.query import QueryNetwork
from repro.core.shedder import LoadShedder
from repro.core.tuples import StreamTuple
from repro.medusa.economy import Economy
from repro.medusa.federation import FederatedQuery, Federation, QueryStage
from repro.medusa.participant import Participant
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import SpanSink, Tracer
from repro.workloads.generators import (
    BurstySource,
    DiurnalSource,
    FlashCrowdSource,
    PoissonSource,
    SensorFleetSource,
    StockQuoteSource,
)
from repro.workloads.population import KeyedPopulation
from repro.workloads.slo import (
    SLO,
    FaultWindow,
    Probe,
    RunTimeline,
    SLOReport,
    evaluate_slos,
)

Traffic = dict[str, list[StreamTuple]]

TRACE_RATE = 0.05  # every scenario's tracer sampling rate
TICK = 0.25        # probe / hook cadence in virtual seconds


# -- faults ------------------------------------------------------------------


class Fault:
    """An injected failure window ``[start, end)`` in virtual time."""

    kind: str = "fault"

    def __init__(self, start: float, end: float):
        if end <= start:
            raise ValueError(f"empty fault window ({start}, {end})")
        self.start = start
        self.end = end

    def window(self) -> FaultWindow:
        return FaultWindow(self.kind, self.start, self.end)

    def apply(self, runner: "ScenarioRunner") -> None:  # pragma: no cover
        raise NotImplementedError

    def clear(self, runner: "ScenarioRunner") -> None:  # pragma: no cover
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.start:g}..{self.end:g})"


class CapacityFault(Fault):
    """A node brownout: CPU capacity multiplied by ``factor`` (< 1)."""

    kind = "capacity"

    def __init__(self, start: float, end: float, factor: float):
        super().__init__(start, end)
        if not 0.0 < factor:
            raise ValueError("factor must be positive")
        self.factor = factor
        self._saved: float | None = None

    def apply(self, runner: "ScenarioRunner") -> None:
        self._saved = runner.engine.cpu_capacity
        runner.engine.cpu_capacity = self._saved * self.factor

    def clear(self, runner: "ScenarioRunner") -> None:
        assert self._saved is not None
        runner.engine.cpu_capacity = self._saved


class InputOutageFault(Fault):
    """An upstream outage: arrivals on one input are lost entirely."""

    kind = "input_outage"

    def __init__(self, start: float, end: float, input_name: str):
        super().__init__(start, end)
        self.input_name = input_name

    def apply(self, runner: "ScenarioRunner") -> None:
        runner.outages.add(self.input_name)

    def clear(self, runner: "ScenarioRunner") -> None:
        runner.outages.discard(self.input_name)


class HookFault(Fault):
    """A scenario-defined fault (e.g. failing Medusa participants)."""

    def __init__(
        self,
        start: float,
        end: float,
        on_apply: Callable[["ScenarioRunner"], None],
        on_clear: Callable[["ScenarioRunner"], None],
        kind: str = "hook",
    ):
        super().__init__(start, end)
        self.kind = kind
        self.on_apply = on_apply
        self.on_clear = on_clear

    def apply(self, runner: "ScenarioRunner") -> None:
        self.on_apply(runner)

    def clear(self, runner: "ScenarioRunner") -> None:
        self.on_clear(runner)


# -- the scenario contract ---------------------------------------------------


@dataclass
class Scenario:
    """One declarative production workload.

    Args:
        name: registry key (also the report key).
        description: one-line operator-facing summary.
        build: constructs a fresh ``(network, qos_specs)`` pair.
        traffic: seeded arrival streams per network input.
        slos: the objectives the run is scored against.
        duration: nominal run length in virtual seconds (arrivals and
            faults all land inside it).
        faults: injected fault windows.
        train_size / cpu_capacity / scheduling_overhead /
        shedder_target / load_window: engine knobs (capacity is
            pre-scaled by :func:`make_scenario`; the short default
            load window makes the shedder react to sub-second
            backlog the way a production admission controller would).
        shedding: whether a load shedder is installed at all.
        elasticity: optional :class:`ElasticitySpec`; when set, the
            runner installs an :class:`ElasticityController` over the
            engine and drives it from the probe tick, so hot boxes
            split/merge at runtime while the run is scored.
        setup / on_tick / on_finish: optional runner hooks (Medusa
            market rounds, ad-hoc query bursts, invariant checks).
    """

    name: str
    description: str
    build: Callable[[], tuple[QueryNetwork, dict[str, QoSSpec]]]
    traffic: Callable[[int], Traffic]
    slos: list[SLO]
    duration: float
    faults: list[Fault] = field(default_factory=list)
    train_size: int = 20
    cpu_capacity: float = 1.0
    scheduling_overhead: float = 0.00001
    shedder_target: float = 1.0
    load_window: float = 0.1
    shedding: bool = True
    setup: Callable[["ScenarioRunner"], None] | None = None
    on_tick: Callable[["ScenarioRunner", float], None] | None = None
    on_finish: Callable[["ScenarioRunner"], None] | None = None
    elasticity: ElasticitySpec | None = None

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        for fault in self.faults:
            if fault.end > self.duration:
                raise ValueError(
                    f"fault {fault!r} extends past duration {self.duration:g}"
                )

    @property
    def drain_grace(self) -> float:
        """Extra probing time after ``duration`` while the backlog drains."""
        return 2.0 * self.duration


@dataclass
class ScenarioResult:
    """One scenario run's outcome plus the surfaces it was scored on."""

    scenario: str
    seed: int
    report: SLOReport
    ingested: int
    delivered: int
    shed: int
    traces: int
    timeline: RunTimeline
    registry: MetricsRegistry
    sink: SpanSink
    engine: AuroraEngine

    def summary(self) -> dict:
        """The JSON-able report row (deterministic for a fixed seed)."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "passed": self.report.passed,
            "attainment": round(self.report.attainment, 4),
            "ingested": self.ingested,
            "delivered": self.delivered,
            "shed": self.shed,
            "traces": self.traces,
            "objectives": [obj.to_dict() for obj in self.report.objectives],
        }


class ScenarioRunner:
    """Drives one scenario through the engine in virtual time.

    The merged event timeline interleaves, at each instant, fault
    transitions first, then probe/hook ticks, then tuple arrivals —
    so a fault starting at ``t`` affects the tuple arriving at ``t``,
    and a probe at ``t`` sees the pre-arrival state.

    Args:
        scenario: what to run.
        seed: drives traffic generation, shedder coin flips and any
            scenario hook randomness — same seed, same run.
    """

    def __init__(self, scenario: Scenario, seed: int = 0):
        self.scenario = scenario
        self.seed = seed
        self.registry = MetricsRegistry()
        self.sink = SpanSink()
        self.extras: dict = {}
        self.outages: set[str] = set()
        network, qos_specs = scenario.build()
        self.network = network
        tracer = Tracer(self.sink, sample_rate=TRACE_RATE)
        shedder = (
            LoadShedder(target_load=scenario.shedder_target, seed=seed + 17)
            if scenario.shedding
            else None
        )
        self.engine = AuroraEngine(
            network,
            train_size=scenario.train_size,
            cpu_capacity=scenario.cpu_capacity,
            scheduling_overhead=scenario.scheduling_overhead,
            qos_specs=qos_specs,
            shedder=shedder,
            load_window=scenario.load_window,
            metrics=self.registry,
            tracer=tracer,
        )
        self.controller: ElasticityController | None = None
        if scenario.elasticity is not None:
            self.controller = ElasticityController.from_spec(
                EnginePlane(self.engine),
                scenario.elasticity,
                metrics=self.registry,
                tracer=tracer,
            )
        self.probes: list[Probe] = []
        self._scanned: dict[str, int] = {}
        self._watermarks: dict[str, float] = {}

    # -- virtual-time mechanics ------------------------------------------------

    def _probe(self) -> None:
        """Record one health observation at the current engine clock.

        The probe tick doubles as the shedder's control loop: the
        engine's own step-count cadence is too coarse for an
        event-driven run (a handful of large trains per second), so the
        drop probabilities are refreshed here at a fixed virtual-time
        cadence.
        """
        engine = self.engine
        # Elasticity first: a split that lands this tick changes the
        # load factor the shedder is about to read, so the shedder sees
        # the post-rewrite capacity (scale out beats dropping tuples).
        if self.controller is not None:
            self.controller.probe(engine.clock)
        if engine.shedder is not None:
            engine.shedder.update(engine)
        clock = engine.clock
        staleness: dict[str, float] = {}
        for name, delivered in engine.outputs.items():
            start = self._scanned.get(name, 0)
            watermark = self._watermarks.get(name)
            for tup in delivered[start:]:
                if watermark is None or tup.timestamp > watermark:
                    watermark = tup.timestamp
            self._scanned[name] = len(delivered)
            if watermark is not None:
                self._watermarks[name] = watermark
                staleness[name] = max(0.0, clock - watermark)
        self.probes.append(
            Probe(
                time=clock,
                queued_work=engine.queued_work(),
                backlog_tuples=engine.queued_total,
                staleness=staleness,
            )
        )

    # -- the run ---------------------------------------------------------------

    def run(self) -> ScenarioResult:
        scenario = self.scenario
        if scenario.setup is not None:
            scenario.setup(self)
        traffic = scenario.traffic(self.seed)
        events: list[tuple[float, int, int, str, object]] = []
        order = 0
        for input_name in sorted(traffic):
            if input_name not in self.network.inputs:
                raise ValueError(
                    f"scenario {scenario.name!r} produced traffic for unknown "
                    f"input {input_name!r}"
                )
            for tup in traffic[input_name]:
                events.append((tup.timestamp, 2, order, input_name, tup))
                order += 1
        for fault in scenario.faults:
            events.append((fault.start, 0, order, "apply", fault))
            order += 1
            events.append((fault.end, 0, order, "clear", fault))
            order += 1
        ticks = max(1, round(scenario.duration / TICK))
        for k in range(1, ticks + 1):
            events.append((k * TICK, 1, order, "tick", None))
            order += 1
        events.sort()  # by (time, priority, order): ``order`` is unique

        engine = self.engine
        outage_dropped = self.registry.labelled("workload.outage.dropped", "input")
        index, size = 0, len(events)
        while index < size:
            when, _priority, _order, kind, payload = events[index]
            index += 1
            engine.run_until(when)
            if kind == "apply":
                assert isinstance(payload, Fault)
                payload.apply(self)
            elif kind == "clear":
                assert isinstance(payload, Fault)
                payload.clear(self)
            elif kind == "tick":
                self._probe()
                if scenario.on_tick is not None:
                    scenario.on_tick(self, when)
            else:
                # Due arrivals enter together: every following arrival
                # of the same input that is already due (no fault or
                # tick comes first) would find ``run_until`` a no-op and
                # leave the clock where it is, so one call admits them.
                due = [payload]
                clock = engine.clock
                while index < size:
                    event = events[index]
                    if event[3] != kind or event[0] > clock:
                        break
                    due.append(event[4])
                    index += 1
                if kind in self.outages:
                    outage_dropped[kind].inc(len(due))
                else:
                    engine.push_many(kind, due)

        # Drain: keep probing (on the tick cadence) while the backlog
        # clears, bounded by the grace window — a system that never
        # drains shows up as a failed recovery SLO, not a hang.
        when = scenario.duration
        deadline = scenario.duration + scenario.drain_grace
        while not self.engine.idle and when < deadline:
            when += TICK
            self.engine.run_until(when)
            self._probe()
        self.engine.run_until_idle()
        self.engine.flush()
        self._probe()
        if scenario.on_finish is not None:
            scenario.on_finish(self)

        timeline = RunTimeline(
            probes=self.probes,
            faults=[fault.window() for fault in scenario.faults],
            duration=scenario.duration,
        )
        report = evaluate_slos(
            scenario.name, scenario.slos, self.registry, self.sink, timeline
        )
        return ScenarioResult(
            scenario=scenario.name,
            seed=self.seed,
            report=report,
            ingested=int(self.registry.total("engine.ingest.tuples")),
            delivered=int(self.registry.total("engine.delivered.tuples")),
            shed=int(self.registry.total("engine.shed.dropped")),
            traces=len(self.sink.trace_ids()),
            timeline=timeline,
            registry=self.registry,
            sink=self.sink,
            engine=self.engine,
        )


def run_scenario(name: str, scale: float = 1.0, seed: int = 0) -> ScenarioResult:
    """Convenience: build the named scenario at ``scale`` and run it."""
    return ScenarioRunner(make_scenario(name, scale=scale), seed=seed).run()


# -- shared pieces -----------------------------------------------------------


def _count(n: float, floor: int) -> int:
    return max(int(n), floor)


def _loss() -> QoSSpec:
    """The default per-output spec: a live loss slope at full delivery
    (``full_at`` just past 1.0 so the shedder's cost ranking is defined
    before the first drop) and a generous latency curve."""
    return QoSSpec(
        latency=latency_qos(1.0, 10.0),
        loss=loss_qos(full_at=1.05, zero_at=0.05),
    )


# -- scenario 1: diurnal checkout traffic ------------------------------------


def _diurnal_checkout(scale: float) -> Scenario:
    """A retail checkout API over a day: sinusoidal load that peaks at
    ~100% of capacity, with a mid-peak brownout forcing shedding."""
    duration = 12.0
    users = _count(5000 * scale, 500)

    def build() -> tuple[QueryNetwork, dict[str, QoSSpec]]:
        net = QueryNetwork("diurnal_checkout")
        net.add_box("validate", Filter(lambda t: t["req"] >= 0, cost_per_tuple=0.0008))
        net.add_box(
            "enrich",
            Map(
                lambda v: {**v, "tier": "gold" if v["user"] % 10 == 0 else "std"},
                cost_per_tuple=0.0008,
            ),
        )
        net.add_box(
            "route",
            CaseFilter(
                [lambda t: t["tier"] == "gold", lambda t: True],
                names=["gold", "std"],
                cost_per_tuple=0.0008,
            ),
        )
        net.connect("in:requests", "validate")
        net.connect("validate", "enrich")
        net.connect("enrich", "route")
        net.connect(("route", 0), "out:gold")
        net.connect(("route", 1), "out:std")
        return net, {"gold": _loss(), "std": _loss()}

    def traffic(seed: int) -> Traffic:
        population = KeyedPopulation(users, skew=1.05)
        row_rng = random.Random(seed * 2 + 1)

        def make_row(i: int) -> dict:
            return {"req": i, "user": population.sample(row_rng)}

        source = DiurnalSource(
            base_rate=80.0 * scale,
            peak_rate=460.0 * scale,
            make_row=make_row,
            period=duration,
            peak_at=duration / 2,
            seed=seed,
        )
        return {"requests": source.generate(duration)}

    return Scenario(
        name="diurnal_checkout",
        description="retail checkout API under a diurnal curve with a "
        "mid-peak capacity brownout",
        build=build,
        traffic=traffic,
        duration=duration,
        cpu_capacity=scale,
        faults=[CapacityFault(5.5, 6.6, factor=0.45)],
        slos=[
            SLO("p50_latency", "latency", target=0.30, percentile=50.0),
            SLO("p99_latency", "latency", target=2.50, percentile=99.0),
            SLO("shed_budget", "shed_fraction", target=0.15),
            SLO("brownout_recovery", "recovery", target=4.0),
        ],
    )


# -- scenario 2: flash crowd --------------------------------------------------


def _flash_crowd(scale: float) -> Scenario:
    """Two 4x flash crowds over a rotating hot-key population; the
    second crowd coincides with a 2x capacity loss.

    Volume is provisioned at twice the original rates (with capacity
    raised to match, so the load-factor trajectory and SLO targets are
    unchanged): the columnar window kernels made the full-scale nightly
    run cheap enough to afford the larger tuple population.
    """
    duration = 10.0
    keys = _count(384 * scale, 48)

    def build() -> tuple[QueryNetwork, dict[str, QoSSpec]]:
        net = QueryNetwork("flash_crowd")
        net.add_box(
            "route",
            CaseFilter(
                [
                    lambda t: t["key"] % 3 == 0,
                    lambda t: t["key"] % 3 == 1,
                    lambda t: True,
                ],
                names=["s0", "s1", "s2"],
                cost_per_tuple=0.0006,
            ),
        )
        for shard in range(3):
            net.add_box(
                f"shard{shard}",
                Map(lambda v: {**v, "served": True}, cost_per_tuple=0.0006),
            )
            net.connect(("route", shard), f"shard{shard}")
        net.connect("in:requests", "route")
        net.add_box(
            "hot",
            Tumble("cnt", groupby=("key",), value_attr="req", cost_per_tuple=0.002),
        )
        net.connect("shard0", "hot")
        net.connect("hot", "out:hot_counts")
        net.connect("shard1", "out:served1")
        net.connect("shard2", "out:served2")
        specs = {name: _loss() for name in ("hot_counts", "served1", "served2")}
        return net, specs

    def traffic(seed: int) -> Traffic:
        source = FlashCrowdSource(
            base_rate=300.0 * scale,
            crowd_rate=1600.0 * scale,
            crowds=[(3.0, 4.2), (7.0, 8.2)],
            population=KeyedPopulation(keys, skew=1.1, rotate_every=0.5),
            seed=seed,
        )
        return {"requests": source.generate(duration)}

    return Scenario(
        name="flash_crowd",
        description="two 4x flash crowds on a rotating hot-key set, the "
        "second colliding with a capacity brownout",
        build=build,
        traffic=traffic,
        duration=duration,
        cpu_capacity=2.0 * scale,
        faults=[CapacityFault(7.2, 8.0, factor=0.4)],
        slos=[
            SLO("p50_latency", "latency", target=0.30, percentile=50.0),
            SLO("p99_latency", "latency", target=2.50, percentile=99.0),
            SLO("shed_budget", "shed_fraction", target=0.20),
            SLO("crowd_recovery", "recovery", target=3.0),
        ],
    )


# -- scenario 2b: flash crowd absorbed by elastic scale-out -------------------


def _elastic_flash_crowd(scale: float) -> Scenario:
    """A single sustained 6x flash crowd on a keyed serving pipeline.

    Unlike ``flash_crowd``, the node is provisioned for the *base* load
    only: riding out the crowd within the shed budget requires the
    elasticity controller to split the hot ``serve`` box across spare
    capacity (``capacity_per_replica``) and merge back afterwards.  The
    same scenario with ``elasticity=None`` blows straight through the
    shed-fraction SLO — that contrast is asserted in the test suite.
    """
    duration = 10.0
    keys = _count(96 * scale, 24)

    def build() -> tuple[QueryNetwork, dict[str, QoSSpec]]:
        net = QueryNetwork("elastic_flash_crowd")
        net.add_box("gate", Filter(lambda t: t["req"] >= 0, cost_per_tuple=0.0004))
        net.add_box(
            "serve",
            Map(lambda v: {**v, "served": True}, cost_per_tuple=0.0024),
        )
        net.add_box("audit", Filter(lambda t: True, cost_per_tuple=0.0003))
        net.connect("in:requests", "gate")
        net.connect("gate", "serve")
        net.connect("serve", "audit")
        net.connect("audit", "out:served")
        return net, {"served": _loss()}

    def traffic(seed: int) -> Traffic:
        source = FlashCrowdSource(
            base_rate=140.0 * scale,
            crowd_rate=900.0 * scale,
            crowds=[(3.0, 5.5)],
            population=KeyedPopulation(keys, skew=1.6, rotate_every=2.0),
            seed=seed,
        )
        return {"requests": source.generate(duration)}

    return Scenario(
        name="elastic_flash_crowd",
        description="a 6x flash crowd on a base-provisioned serving box; "
        "staying inside the shed budget needs runtime scale-out",
        build=build,
        traffic=traffic,
        duration=duration,
        cpu_capacity=scale,
        load_window=0.5,
        shedder_target=0.5,
        faults=[InputOutageFault(7.5, 8.2, input_name="requests")],
        elasticity=ElasticitySpec(
            boxes={"serve": ("key",)},
            policy=ElasticityPolicy(
                high_water=0.35,
                low_water=0.12,
                cooldown=0.3,
                max_replicas=4,
                capacity_per_replica=scale,
            ),
        ),
        slos=[
            SLO("p99_latency", "latency", target=2.50, percentile=99.0),
            SLO("shed_budget", "shed_fraction", target=0.05),
            SLO("crowd_recovery", "recovery", target=3.0),
            SLO("scale_out", "counter_min", target=1.0,
                metric="elasticity.splits"),
            SLO("scale_in", "counter_min", target=1.0,
                metric="elasticity.merges"),
        ],
    )


# -- scenario 3: IoT sensor fleet ---------------------------------------------


def _iot_fleet(scale: float) -> Scenario:
    """A churning device fleet feeding a per-shard health aggregate,
    through an upstream outage and a capacity brownout.

    Like ``flash_crowd``, fleet volume runs at twice the original rate
    with capacity raised to match — same load shape and SLO targets,
    double the tuples through the windowed health aggregate.
    """
    duration = 10.0
    devices = _count(800 * scale, 40)

    def build() -> tuple[QueryNetwork, dict[str, QoSSpec]]:
        net = QueryNetwork("iot_fleet")
        net.add_box(
            "plausible",
            Filter(lambda t: -50.0 < t["value"] < 150.0, cost_per_tuple=0.0008),
        )
        net.add_box(
            "shard",
            Map(lambda v: {**v, "g": v["device"] % 8}, cost_per_tuple=0.0008),
        )
        net.add_box(
            "health",
            Tumble("avg", groupby=("g",), value_attr="value", cost_per_tuple=0.002),
        )
        net.connect("in:sensors", "plausible")
        net.connect("plausible", "shard")
        net.connect("shard", "health")
        net.connect("health", "out:device_health")
        return net, {"device_health": _loss()}

    def traffic(seed: int) -> Traffic:
        source = SensorFleetSource(
            n_devices=devices,
            rate=500.0 * scale,
            skew=1.2,
            churn_every=0.1,
            seed=seed,
        )
        return {"sensors": source.generate(duration)}

    return Scenario(
        name="iot_fleet",
        description="churning IoT fleet with an upstream outage and a "
        "capacity brownout",
        build=build,
        traffic=traffic,
        duration=duration,
        cpu_capacity=2.0 * scale,
        faults=[
            InputOutageFault(4.0, 5.2, input_name="sensors"),
            CapacityFault(7.0, 8.0, factor=0.35),
        ],
        slos=[
            SLO("p99_latency", "latency", target=1.50, percentile=99.0),
            SLO("shed_budget", "shed_fraction", target=0.10),
            SLO("health_staleness", "staleness", target=2.5, stream="device_health"),
            SLO("fault_recovery", "recovery", target=3.0),
        ],
    )


# -- scenario 4: Medusa market ------------------------------------------------


def _medusa_market(scale: float) -> Scenario:
    """Multi-tenant stream processing riding on a Medusa federation:
    hundreds of participants trade contracts in market rounds while the
    engine serves three tenant streams; a wave of participant failures
    and an engine brownout land mid-run."""
    duration = 10.0
    round_every = 0.5
    n_participants = _count(240 * scale, 24)
    n_queries = _count(60 * scale, 12)
    tenants = ("gold", "silver", "bronze")
    rates = {"gold": 120.0 * scale, "silver": 90.0 * scale, "bronze": 60.0 * scale}

    def build() -> tuple[QueryNetwork, dict[str, QoSSpec]]:
        net = QueryNetwork("medusa_market")
        specs = {}
        for rank, tenant in enumerate(tenants):
            net.add_box(
                f"{tenant}_f",
                Filter(lambda t: t["v"] >= 0, cost_per_tuple=0.0012),
            )
            net.add_box(
                f"{tenant}_m",
                Map(lambda v: {**v, "ok": True}, cost_per_tuple=0.0012),
            )
            net.connect(f"in:{tenant}", f"{tenant}_f")
            net.connect(f"{tenant}_f", f"{tenant}_m")
            net.connect(f"{tenant}_m", f"out:{tenant}_out")
            specs[f"{tenant}_out"] = QoSSpec(
                latency=latency_qos(1.0, 10.0),
                loss=loss_qos(full_at=1.05, zero_at=0.05),
                importance=float(len(tenants) - rank),
            )
        return net, specs

    def setup(runner: ScenarioRunner) -> None:
        federation = Federation(contract_period=8)
        names = [f"p{i:03d}" for i in range(n_participants)]
        for name in names:
            federation.add_participant(
                Participant(name, capacity=120.0, unit_cost=0.01), balance=1000.0
            )
        for i in range(n_queries):
            owner = names[i % n_participants]
            hosts = [names[(i + k) % n_participants] for k in (1, 2, 3)]
            sink = names[(i + 4) % n_participants]
            stages = [
                QueryStage(f"s{k}", work_per_message=1.0, selectivity=0.8,
                           value_added=0.01)
                for k in range(3)
            ]
            query = FederatedQuery(
                name=f"q{i:03d}",
                owner=owner,
                source=owner,
                source_stream=f"feed{i:03d}",
                rate=40.0,
                source_value=0.005,
                stages=stages,
                sink=sink,
            )
            federation.add_query(query)
            for stage, host in zip(stages, hosts):
                participant = federation.participant(host)
                participant.offer_operator(stage.template)
                participant.authorize(owner)
                federation.assign_stage(query.name, stage.name, host)
        runner.extras["federation"] = federation
        runner.extras["initial_balance"] = federation.economy.total_balance()
        runner.extras["rounds_done"] = 0

    def on_tick(runner: ScenarioRunner, when: float) -> None:
        federation: Federation = runner.extras["federation"]
        due = int(round(when / round_every + 1e-9))
        while runner.extras["rounds_done"] < due:
            federation.run_round()
            runner.extras["rounds_done"] += 1
            runner.registry.counter("medusa.rounds").inc()
            operational = sum(
                1
                for query in federation.queries.values()
                if federation.query_operational(query)
            )
            runner.registry.counter("medusa.queries_operational").inc(operational)
            runner.registry.counter("medusa.contracts_settled").inc(
                len(federation.active_contracts())
            )

    def fail_wave(runner: ScenarioRunner) -> None:
        federation: Federation = runner.extras["federation"]
        names = sorted(federation.participants)
        count = max(n_participants // 20, 1)
        chosen = random.Random(runner.seed + 101).sample(names, count)
        runner.extras["failed_wave"] = chosen
        for name in chosen:
            federation.participant(name).fail()

    def recover_wave(runner: ScenarioRunner) -> None:
        federation: Federation = runner.extras["federation"]
        for name in runner.extras.get("failed_wave", []):
            federation.participant(name).recover()

    def on_finish(runner: ScenarioRunner) -> None:
        federation: Federation = runner.extras["federation"]
        economy: Economy = federation.economy
        drift = abs(economy.total_balance() - runner.extras["initial_balance"])
        if drift > 1e-6:
            raise RuntimeError(
                f"medusa economy leaked {drift:g} across market rounds"
            )

    expected_rounds = int(duration / round_every)
    return Scenario(
        name="medusa_market",
        description=f"{n_participants} Medusa participants trading contracts "
        "across market rounds under a participant-failure wave, while the "
        "engine serves three tenant streams through a brownout",
        build=build,
        traffic=lambda seed: {
            tenant: PoissonSource(
                rates[tenant], lambda i: {"v": i}, seed=seed + rank
            ).generate(duration)
            for rank, tenant in enumerate(tenants)
        },
        duration=duration,
        cpu_capacity=scale,
        faults=[
            HookFault(3.0, 5.0, fail_wave, recover_wave, kind="participant_wave"),
            CapacityFault(6.0, 7.2, factor=0.4),
        ],
        setup=setup,
        on_tick=on_tick,
        on_finish=on_finish,
        slos=[
            SLO("p99_latency", "latency", target=2.50, percentile=99.0),
            SLO("shed_budget", "shed_fraction", target=0.20),
            SLO("brownout_recovery", "recovery", target=3.0),
            SLO(
                "market_rounds",
                "counter_min",
                target=float(expected_rounds - 1),
                metric="medusa.rounds",
            ),
            SLO(
                "contracts_settled",
                "counter_min",
                target=float(n_queries * expected_rounds),
                metric="medusa.contracts_settled",
            ),
        ],
    )


# -- scenario 5: financial ticks + ad-hoc history queries ---------------------


def _fin_ticks(scale: float) -> Scenario:
    """A skewed tick stream into a per-symbol average, with an analyst
    firing ad-hoc queries at the connection-point history every second
    and a capacity brownout mid-run."""
    duration = 10.0
    symbols = [f"S{i:03d}" for i in range(_count(160 * scale, 16))]
    retention = _count(2000 * scale, 500)
    adhoc_every = 1.0

    def build() -> tuple[QueryNetwork, dict[str, QoSSpec]]:
        net = QueryNetwork("fin_ticks")
        net.add_box("valid", Filter(lambda t: t["px"] > 0, cost_per_tuple=0.0008))
        net.add_box(
            "px_avg",
            Tumble("avg", groupby=("sym",), value_attr="px", cost_per_tuple=0.002),
        )
        net.connect(
            "in:ticks",
            "valid",
            connection_point=True,
            retention=retention,
            arc_id="ticks_tap",
        )
        net.connect("valid", "px_avg")
        net.connect("px_avg", "out:sym_avg")
        return net, {"sym_avg": _loss()}

    def traffic(seed: int) -> Traffic:
        source = StockQuoteSource(symbols, rate=300.0 * scale, skew=1.2, seed=seed)
        return {"ticks": source.generate(duration)}

    def on_tick(runner: ScenarioRunner, when: float) -> None:
        due = int(round(when / adhoc_every + 1e-9))
        fired = runner.extras.setdefault("adhoc_fired", 0)
        while fired < due:
            query = QueryNetwork("analyst")
            query.add_box(
                "big", Filter(lambda t: t["size"] >= 1000, cost_per_tuple=0.0005)
            )
            query.add_box(
                "by_sym",
                Tumble("cnt", groupby=("sym",), value_attr="px",
                       cost_per_tuple=0.002),
            )
            query.connect("in:history", "big")
            query.connect("big", "by_sym")
            query.connect("by_sym", "out:block_trades")
            outputs = run_adhoc(runner.network, "ticks_tap", query)
            runner.registry.counter("adhoc.queries").inc()
            runner.registry.counter("adhoc.results").inc(
                len(outputs["block_trades"])
            )
            fired += 1
        runner.extras["adhoc_fired"] = fired

    return Scenario(
        name="fin_ticks",
        description="skewed financial ticks with per-second ad-hoc history "
        "queries and a capacity brownout",
        build=build,
        traffic=traffic,
        duration=duration,
        cpu_capacity=scale,
        faults=[CapacityFault(5.0, 6.2, factor=0.4)],
        on_tick=on_tick,
        slos=[
            SLO("p50_latency", "latency", target=0.30, percentile=50.0),
            SLO("p99_latency", "latency", target=2.00, percentile=99.0),
            SLO("shed_budget", "shed_fraction", target=0.10),
            SLO("brownout_recovery", "recovery", target=3.0),
            SLO(
                "adhoc_queries",
                "counter_min",
                target=float(int(duration / adhoc_every) - 1),
                metric="adhoc.queries",
            ),
        ],
    )


# -- scenario 6: tenant mix under sustained overload --------------------------


def _tenant_mix(scale: float) -> Scenario:
    """A gold tenant (steep loss-QoS, high importance) sharing the node
    with a bursty bronze tenant; overload must land on bronze."""
    duration = 8.0

    def build() -> tuple[QueryNetwork, dict[str, QoSSpec]]:
        net = QueryNetwork("tenant_mix")
        for tenant in ("gold", "bronze"):
            net.add_box(
                f"{tenant}_f", Filter(lambda t: t["v"] >= 0, cost_per_tuple=0.0015)
            )
            net.add_box(
                f"{tenant}_m",
                Map(lambda v: {**v, "ok": True}, cost_per_tuple=0.0015),
            )
            net.connect(f"in:{tenant}", f"{tenant}_f")
            net.connect(f"{tenant}_f", f"{tenant}_m")
            net.connect(f"{tenant}_m", f"out:{tenant}_out")
        specs = {
            "gold_out": QoSSpec(
                latency=latency_qos(0.5, 5.0),
                loss=loss_qos(full_at=1.05, zero_at=0.05),
                importance=8.0,
            ),
            "bronze_out": QoSSpec(
                latency=latency_qos(2.0, 20.0),
                loss=loss_qos(full_at=1.05, zero_at=0.05),
                importance=0.5,
            ),
        }
        return net, specs

    def traffic(seed: int) -> Traffic:
        gold = PoissonSource(100.0 * scale, lambda i: {"v": i}, seed=seed)
        bronze = BurstySource(
            base_rate=60.0 * scale,
            burst_rate=640.0 * scale,
            period=2.0,
            duty=0.3,
            make_row=lambda i: {"v": i},
            seed=seed + 1,
        )
        return {
            "gold": gold.generate(duration),
            "bronze": bronze.generate(duration),
        }

    return Scenario(
        name="tenant_mix",
        description="gold tenant (steep loss-QoS) sharing the node with a "
        "bursty bronze tenant under sustained overload",
        build=build,
        traffic=traffic,
        duration=duration,
        cpu_capacity=scale,
        faults=[CapacityFault(4.0, 5.0, factor=0.55)],
        slos=[
            SLO("gold_p99_latency", "latency", target=2.50, percentile=99.0,
                stream="gold_out"),
            SLO("gold_shed", "shed_fraction", target=0.08, stream="gold"),
            SLO("bronze_shed", "shed_fraction", target=0.90, stream="bronze"),
            SLO("burst_recovery", "recovery", target=3.0),
        ],
    )


# -- registry ----------------------------------------------------------------

SCENARIO_BUILDERS: dict[str, Callable[[float], Scenario]] = {
    "diurnal_checkout": _diurnal_checkout,
    "flash_crowd": _flash_crowd,
    "elastic_flash_crowd": _elastic_flash_crowd,
    "iot_fleet": _iot_fleet,
    "medusa_market": _medusa_market,
    "fin_ticks": _fin_ticks,
    "tenant_mix": _tenant_mix,
}


def scenario_names() -> list[str]:
    """All registered scenario names, sorted."""
    return sorted(SCENARIO_BUILDERS)


def make_scenario(name: str, scale: float = 1.0) -> Scenario:
    """Instantiate one registered scenario at a load/population scale.

    ``scale`` multiplies offered rates, population sizes *and* CPU
    capacity together, so the load factor trajectory — and therefore
    the declared SLO targets — is the same at every scale.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    try:
        builder = SCENARIO_BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {scenario_names()}"
        ) from None
    return builder(scale)
