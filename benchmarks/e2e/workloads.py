"""The six benchmark workloads.

A workload object lives for one repeat: ``setup()`` synthesises the
inputs from the seed and builds the system (timed as ``setup_s``),
``run()`` is the timed region and returns a :class:`RunStats`,
``layer_counts()`` reads the counters the program itself keeps (traced
runs only), ``close()`` releases processes, and ``check()`` compares the
delivered tuples with a reference (untimed) and returns what differs.

Engine workloads are closed loop with one client: push one train,
``run_until_idle()``, consume what was delivered, push the next.  Sizes
are frozen here; ``smoke`` divides them by 50.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

import numpy as np

from benchmarks.e2e import networks
from repro.core.columnar import ColumnarTrain
from repro.core.engine import AuroraEngine
from repro.core.query import QueryNetwork
from repro.core.shedder import LoadShedder
from repro.core.tuples import StreamTuple
from repro.distributed.system import AuroraStarSystem
from repro.obs.export import dumps, snapshot
from repro.obs.trace import SpanSink, Tracer
from repro.parallel.blueprints import blueprint
from repro.parallel.coordinator import ParallelSystem
from repro.parallel.oracle import output_key
from repro.workloads.scenarios import ScenarioRunner, make_scenario
from repro.workloads.slo import percentile

PREFIX = 50_000  # tuples compared against the per-tuple reference engine
SMOKE_DIVISOR = 50


@dataclass
class RunStats:
    """What one timed region offered, delivered and lost."""

    offered: int
    delivered: int
    lost: int  # offered tuples neither delivered, aggregated nor declared dropped
    problems: list[str] = field(default_factory=list)


def p99(latencies: Iterable[Iterable[float]]) -> float:
    """Nearest-rank p99 over several per-stream samples; 0 if none."""
    values = [v for stream in latencies for v in stream]
    return percentile(values, 99.0) if values else 0.0


def multiset(outputs: dict[str, Iterable[StreamTuple]]) -> Counter:
    """Order-free identity of delivered tuples: stream plus the dual-backend
    oracle's ``(timestamp, values)`` key."""
    return Counter(
        (name, output_key(tup)) for name, tuples in outputs.items() for tup in tuples
    )


def digest(bag: Counter) -> str:
    sha = hashlib.sha256()
    for key in sorted(bag.elements()):
        sha.update(repr(key).encode())
    return sha.hexdigest()


def array_digest(*arrays: np.ndarray) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


# -- the two client-side steps the trace attributes --------------------------


def make_train(fields: tuple[str, ...], columns: dict[str, np.ndarray],
               timestamps: np.ndarray, start: int, stop: int) -> ColumnarTrain:
    """Build one native struct-of-arrays train from the source arrays."""
    return ColumnarTrain(
        fields, {f: columns[f][start:stop] for f in fields}, timestamps[start:stop]
    )


def consume(outputs: dict[str, Any], tally: dict[str, list], field_of: dict[str, str]) -> int:
    """The application: read every newly delivered tuple, then drop it.

    ``tally[stream]`` accumulates ``[tuples, sum of field_of[stream]]``.
    Iterating an ``OutputBuffer`` materialises its pending columnar
    segments, so lazy decode is paid here, inside the timed region.
    """
    count = 0
    for name, delivered in outputs.items():
        if not delivered:
            continue
        attr = field_of[name]
        total = 0
        for tup in delivered:
            total += tup.values[attr]
        n = len(delivered)
        entry = tally[name]
        entry[0] += n
        entry[1] += total
        count += n
        delivered.clear()
    return count


class Workload:
    """One repeat of one workload; subclasses set ``name``, ``why``, sizes."""

    name = ""
    why = ""

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.input_digest = ""
        self.output_digest = ""
        self.lost_vs_reference = 0

    def sized(self, n: int) -> int:
        return max(1, n // SMOKE_DIVISOR) if self.smoke else n

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> RunStats:
        raise NotImplementedError

    def model_latency_p99_s(self) -> float:
        """p99 of delivery clock minus event timestamp, in the modelled
        (virtual) clock, over every delivered tuple; 0 without a model clock."""
        return 0.0

    def layer_counts(self) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass

    def check(self) -> list[str]:
        raise NotImplementedError

    def _check_against(self, got: Counter, want: Counter, reference: str) -> list[str]:
        self.output_digest = digest(got)
        self.lost_vs_reference = sum((want - got).values())
        if got == want:
            return []
        return [f"delivered multiset differs from {reference}: "
                f"{self.lost_vs_reference} missing, {sum((got - want).values())} unexpected"]


# -- 1-3: the single-node engine ------------------------------------------------


class EngineWorkload(Workload):
    """Closed loop over one ``AuroraEngine``; subclasses say how a train
    is cut from the inputs and which field of each stream the client sums."""

    TRAIN = 50
    REPLAYS = 1
    FIELD_OF: dict[str, str] = {}

    def network(self) -> QueryNetwork:
        raise NotImplementedError

    def trains(self, n: int) -> Iterator[Any]:
        raise NotImplementedError

    def push(self, engine: AuroraEngine, train: Any) -> None:
        raise NotImplementedError

    def engine_for(self, **flags: Any) -> AuroraEngine:
        return AuroraEngine(self.network(), train_size=self.TRAIN, **flags)

    def drive(self, engine: AuroraEngine, n: int, replays: int,
              tally: dict[str, list] | None) -> None:
        """Push ``n`` input tuples ``replays`` times, then flush.  With a
        tally the client consumes after every train; without one the
        delivered tuples stay in ``engine.outputs`` for comparison."""
        outputs, field_of = engine.outputs, self.FIELD_OF
        for _ in range(replays):
            for train in self.trains(n):
                self.push(engine, train)
                engine.run_until_idle()
                if tally is not None:
                    consume(outputs, tally, field_of)
        engine.flush()
        if tally is not None:
            consume(outputs, tally, field_of)

    def timed(self) -> tuple[dict[str, list], int]:
        tally = {name: [0, 0] for name in self.FIELD_OF}
        self.drive(self.engine, self.n_inputs, self.REPLAYS, tally)
        return tally, self.n_inputs * self.REPLAYS

    def model_latency_p99_s(self) -> float:
        return p99(self.engine.qos_monitor.latencies.values())

    def check(self) -> list[str]:
        """The measured configuration against the per-tuple reference
        engine on a fixed prefix: same multiset, same virtual clock."""
        n = min(self.sized(PREFIX), self.n_inputs)
        measured = self.engine_for(**self.measured_flags())
        reference = self.engine_for(batch_execution=False, fusion=False)
        self.drive(measured, n, 1, None)
        self.drive(reference, n, 1, None)
        problems = self._check_against(
            multiset(measured.outputs), multiset(reference.outputs), "per-tuple reference engine")
        if measured.clock != reference.clock:
            problems.append(
                f"virtual clock {measured.clock!r} differs from reference {reference.clock!r}")
        return problems

    def measured_flags(self) -> dict[str, Any]:
        return {}


class EngineRows(EngineWorkload):
    name = "engine_rows"
    why = ("nothing compiles, so the scheduler, claim/account/emit bookkeeping and row kernels do "
           "all the work; trains of 50 make per-train engine overhead the bottleneck")
    BASE = 50_000
    REPLAYS = 3
    KEYS = 4096
    FIELD_OF = {"hot_counts": "result", "served1": "req", "served2": "req"}
    network = staticmethod(networks.row_fanout)

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.n_inputs = self.sized(self.BASE)
        keys = (rng.zipf(1.2, self.n_inputs) - 1) % self.KEYS
        self.input_digest = array_digest(keys)
        self.rows = [
            StreamTuple.from_parts({"key": key, "req": i}, i * 1e-4, None, None, None)
            for i, key in enumerate(keys.tolist())
        ]
        self.engine = self.engine_for(**self.measured_flags())

    def trains(self, n: int) -> Iterator[list[StreamTuple]]:
        rows, train = self.rows, self.TRAIN
        for start in range(0, n, train):
            yield rows[start:min(start + train, n)]

    def push(self, engine: AuroraEngine, train: list[StreamTuple]) -> None:
        engine.push_many(networks.ROW_INPUT, train)

    def run(self) -> RunStats:
        tally, offered = self.timed()
        # Every offered tuple is served on shard 1 or 2, or counted in
        # exactly one hot_counts window (flush closes the partial ones).
        accounted = tally["served1"][0] + tally["served2"][0] + tally["hot_counts"][1]
        delivered = sum(entry[0] for entry in tally.values())
        return RunStats(offered, delivered, offered - accounted)


class EngineColumnar(EngineWorkload):
    name = "engine_columnar"
    why = ("fused column kernels, segment reductions and output materialisation do the work, the "
           "scheduler almost none; the bypass workload for any row-path or scheduler change")
    BASE = 500_000
    REPLAYS = 3
    TRAIN = 1000
    FIELDS = ("G", "A")
    FIELD_OF = {"agg": "A"}
    network = staticmethod(networks.columnar_chain)

    def setup(self) -> None:
        # One generator per column, so a shorter input is a prefix of a
        # longer one (workloads 2 and 3 share their checked prefix).
        lengths_rng, groups_rng, values_rng = (
            np.random.default_rng([self.seed, stream]) for stream in range(3))
        n = self.n_inputs = self.sized(self.BASE)
        lengths = lengths_rng.integers(4, 13, size=n // 4 + 1)
        groups = np.repeat(groups_rng.integers(0, 1 << 20, size=len(lengths)), lengths)[:n]
        self.columns = {"G": groups, "A": values_rng.integers(0, 100, size=n)}
        self.timestamps = np.arange(n, dtype=np.float64) * 1e-5
        self.input_digest = array_digest(groups, self.columns["A"])
        # Closed form of what the chain lets through, summed.
        a = self.columns["A"]
        a = a[a % 17 != 0] + 1
        a = a[a < 90] * 2
        self.expected_sum = int(a[a % 7 != 0].sum()) * self.REPLAYS
        self.engine = self.engine_for(**self.measured_flags())

    def trains(self, n: int) -> Iterator[ColumnarTrain]:
        fields, columns, timestamps, train = self.FIELDS, self.columns, self.timestamps, self.TRAIN
        for start in range(0, n, train):
            yield make_train(fields, columns, timestamps, start, min(start + train, n))

    def push(self, engine: AuroraEngine, train: ColumnarTrain) -> None:
        # push_train itself falls back to rows when the engine cannot
        # take the train columnar (reference flags, tracer, shedder).
        engine.push_train(networks.COLUMNAR_INPUT, train)

    def run(self) -> RunStats:
        tally, offered = self.timed()
        problems = []
        if tally["agg"][1] != self.expected_sum:
            problems.append(
                f"window sums total {tally['agg'][1]}, closed form says {self.expected_sum}")
        lost = offered - self.engine.network.boxes["f1"].tuples_in
        return RunStats(offered, tally["agg"][0], lost, problems)


class EngineColumnarObserved(EngineColumnar):
    name = "engine_columnar_observed"
    why = ("the same network, generator and driver with a 5% tracer and a never-firing shedder "
           "attached: both are ingestion barriers today, so push_train falls to the row path")
    BASE = 60_000
    REPLAYS = 1

    def measured_flags(self) -> dict[str, Any]:
        self.tracer = Tracer(SpanSink(), sample_rate=0.05)
        self.shedder = LoadShedder(target_load=1e12, seed=self.seed)
        return {"tracer": self.tracer, "shedder": self.shedder}

    def layer_counts(self) -> dict[str, float]:
        return {"obs.trace.spans": len(self.tracer.sink),
                "core.shedder.dropped": self.shedder.tuples_dropped}


# -- 4: SLO scenario ----------------------------------------------------------------


class ScenarioFlashCrowd(Workload):
    name = "scenario_flash_crowd"
    why = ("the only path through workloads.generators/population, the merged event timeline, "
           "per-tuple push, probe-cadence shedding, fault windows, tracing and evaluate_slos")
    SCALE = 2.0
    SMOKE_SCALE = 0.2

    def setup(self) -> None:
        scale = self.SMOKE_SCALE if self.smoke else self.SCALE
        self.scenario = make_scenario("flash_crowd", scale=scale)
        self.runner = ScenarioRunner(self.scenario, seed=self.seed)
        self.input_digest = f"flash_crowd scale={scale:g} seed={self.seed}"

    def run(self) -> RunStats:
        # Traffic generation and SLO scoring are inside ScenarioRunner.run:
        # run_scenario users pay them every run, so they are timed.
        result = self.result = self.runner.run()
        self.exported = dumps(snapshot(result.registry))
        offered = result.ingested + result.shed + self.outage_dropped()
        problems = [f"SLO {o.slo.name} failed: observed {o.observed}"
                    for o in result.report.failed_objectives()]
        return RunStats(offered, result.delivered, 0, problems)

    def model_latency_p99_s(self) -> float:
        """The SLO report's own ``p99_latency`` observation."""
        objectives = self.result.report.objectives
        return next(o.observed or 0.0 for o in objectives if o.slo.name == "p99_latency")

    def outage_dropped(self) -> int:
        return int(self.result.registry.total("workload.outage.dropped"))

    def layer_counts(self) -> dict[str, float]:
        result = self.result
        return {
            "workloads.scenarios.probes": len(result.timeline.probes),
            "obs.trace.spans": len(result.sink),
            "obs.registry.series": len(result.registry),
            "core.shedder.dropped": result.shed,
        }

    def check(self) -> list[str]:
        """Arrival conservation against an independent regeneration."""
        generated = sum(len(v) for v in self.scenario.traffic(self.seed).values())
        result = self.result
        accounted = result.ingested + result.shed + self.outage_dropped()
        self.lost_vs_reference = generated - accounted
        self.output_digest = hashlib.sha256(self.exported.encode()).hexdigest()
        if generated != accounted:
            return [f"{generated} arrivals generated, {accounted} ingested, shed or outage-dropped"]
        return []


# -- 5 and 6: the distributed planes, checked against one plain engine ----------------


def keyed_rows(seed: int, n: int, spacing: float) -> tuple[list[StreamTuple], str]:
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 64, size=n)
    values = rng.integers(0, 1000, size=n)
    rows = [
        StreamTuple.from_parts({"key": k, "v": v}, (i + 1) * spacing, None, None, None)
        for i, (k, v) in enumerate(zip(keys.tolist(), values.tolist()))
    ]
    return rows, array_digest(keys, values)


def single_engine_outputs(network: QueryNetwork, rows: list[StreamTuple]) -> Counter:
    engine = AuroraEngine(network, train_size=50)
    engine.push_many(networks.ROW_INPUT, rows)
    engine.run_until_idle()
    engine.flush()
    return multiset(engine.outputs)


class AuroraStarChain(Workload):
    name = "aurora_star_chain"
    why = ("the simulator event queue, overlay sends and the distributed.node choose/claim/route "
           "loop do the work and core.engine does none; 100x slower per tuple than the engine")
    TUPLES = 4_000
    SPACING = 0.0005

    def setup(self) -> None:
        self.rows, self.input_digest = keyed_rows(self.seed, self.sized(self.TUPLES), self.SPACING)
        system = AuroraStarSystem(networks.star_chain())
        for node in sorted(set(networks.STAR_PLACEMENT.values())):
            system.add_node(node)
        system.deploy(networks.STAR_PLACEMENT)
        self.system = system

    def run(self) -> RunStats:
        system = self.system
        system.schedule_source(networks.ROW_INPUT, self.rows)
        system.run()
        system.flush()
        self.delivered = {name: list(tuples) for name, tuples in system.outputs.items()}
        tally = {"sums": [0, 0]}
        delivered = consume(system.outputs, tally, {"sums": "result"})
        lost = len(self.rows) - system.network.boxes["f"].tuples_in
        return RunStats(len(self.rows), delivered, lost)

    def model_latency_p99_s(self) -> float:
        return p99(self.system.output_latencies.values())

    def layer_counts(self) -> dict[str, float]:
        system = self.system
        return {
            "sim.simulator.events": system.sim.events_processed,
            "network.overlay.bytes": system.metrics.total("transport.bytes"),
            "distributed.node.trains": system.metrics.total("node.trains"),
            "distributed.node.tuples": sum(n.tuples_processed for n in system.nodes.values()),
        }

    def check(self) -> list[str]:
        want = single_engine_outputs(networks.star_chain(), self.rows)
        return self._check_against(multiset(self.delivered), want, "a single AuroraEngine")


class ParallelRows(Workload):
    name = "parallel_rows"
    why = ("network.framing encode/decode, IPC queues and the fence protocol do the work and "
           "operator cost is trivial; 2 workers on 2 cores, so no scaling ratio is reported")
    TUPLES = 40_000
    TRAIN = 50
    BURSTS = 100

    def setup(self) -> None:
        self.rows, self.input_digest = keyed_rows(self.seed, self.sized(self.TUPLES), 1e-4)
        self.survivors = sum(1 for t in self.rows if t.values["v"] % 10 and t.values["key"] % 7)
        self.system = ParallelSystem(
            blueprint("benchmarks.e2e.networks:row_chain"),
            n_workers=2, train_size=self.TRAIN, placement=networks.ROW_CHAIN_PLACEMENT,
        ).start()

    def run(self) -> RunStats:
        system, rows, train = self.system, self.rows, self.TRAIN
        for start in range(0, len(rows), train):
            system.push(networks.ROW_INPUT, rows[start:start + train])
        outputs = system.drain()
        self.delivered = {name: list(tuples) for name, tuples in outputs.items()}
        tally = {"sink": [0, 0]}
        delivered = consume(outputs, tally, {"sink": "v"})
        return RunStats(len(rows), delivered, self.survivors - delivered)

    def layer_counts(self) -> dict[str, float]:
        system = self.system
        workers = system.stats()["workers"].values()
        counts = {f"parallel.worker.{key}": sum(w[key] for w in workers)
                  for key in ("frames_out", "bytes_out", "processed")}
        # Wall-clock round trip of one train through both workers and
        # back, with the plane otherwise idle.
        bursts = []
        for i in range(self.sized(self.BURSTS)):
            train = self.rows[i * self.TRAIN:(i + 1) * self.TRAIN]
            start = time.perf_counter()
            system.push(networks.ROW_INPUT, train)
            system.drain()
            bursts.append(time.perf_counter() - start)
        counts["parallel.coordinator.burst_roundtrip_p50_ms"] = 1e3 * statistics.median(bursts)
        return counts

    def close(self) -> None:
        self.system.shutdown()

    def check(self) -> list[str]:
        want = single_engine_outputs(networks.row_chain(), self.rows)
        return self._check_against(multiset(self.delivered), want, "a single AuroraEngine")


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (EngineRows, EngineColumnar, EngineColumnarObserved,
                ScenarioFlashCrowd, AuroraStarChain, ParallelRows)
}
