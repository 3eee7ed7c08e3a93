"""Observability determinism: scalar, batched and columnar execution
of the same seeded workload must produce byte-identical metric snapshots
and span trees.  This is the property that makes snapshots diffable
across runs and lets CI assert on them.
"""

import random
from collections import Counter

import pytest

from repro.core.columnar import ColumnarTrain, col
from repro.core.engine import AuroraEngine
from repro.core.operators.filter import Filter
from repro.core.operators.map import Map, columnar_map
from repro.core.operators.tumble import Tumble
from repro.core.operators.union import Union
from repro.core.query import QueryNetwork
from repro.core.shedder import LoadShedder
from repro.core.tuples import StreamTuple, make_stream
from repro.obs.export import dumps, snapshot
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer

SEED = 0x0B5E27


def build_network():
    net = QueryNetwork()
    net.add_box("low", Filter(lambda t: t["A"] < 3, cost_per_tuple=0.001))
    net.add_box("high", Filter(lambda t: t["A"] >= 3, cost_per_tuple=0.002))
    net.add_box("u", Union(2, cost_per_tuple=0.0005))
    net.add_box("m", Map(lambda v: {"A": v["A"] * 2}, cost_per_tuple=0.001))
    net.connect("in:src", "low")
    net.connect("in:src", "high")
    net.connect("low", ("u", 0))
    net.connect("high", ("u", 1))
    net.connect("u", "m")
    net.connect("m", "out:sink")
    return net


def windowed_network():
    net = QueryNetwork()
    net.add_box("t", Tumble("sum", groupby=("A",), value_attr="B",
                            cost_per_tuple=0.002))
    net.connect("in:src", "t")
    net.connect("t", "out:agg")
    return net


def workload(seed, n=60):
    rng = random.Random(seed)
    rows = [{"A": rng.randint(0, 5), "B": rng.randint(0, 9)} for _ in range(n)]
    return make_stream(rows, spacing=0.01)


def run_instrumented(build, stream, *, batch, sample_rate=1.0, train_size=9):
    registry = MetricsRegistry()
    tracer = Tracer(sample_rate=sample_rate)
    engine = AuroraEngine(
        build(),
        train_size=train_size,
        batch_execution=batch,
        scheduling_overhead=0.003,
        metrics=registry,
        tracer=tracer,
    )
    engine.push_many("src", stream)
    engine.run_until_idle()
    engine.flush()
    return dumps(snapshot(registry, sink=tracer.sink))


class TestScalarBatchDeterminism:
    def test_snapshot_and_spans_byte_identical(self):
        stream = workload(SEED)
        scalar = run_instrumented(build_network, stream, batch=False)
        batched = run_instrumented(build_network, stream, batch=True)
        assert scalar == batched

    def test_windowed_network_byte_identical(self):
        stream = workload(SEED + 1, n=45)
        scalar = run_instrumented(windowed_network, stream, batch=False)
        batched = run_instrumented(windowed_network, stream, batch=True)
        assert scalar == batched

    def test_partial_sampling_byte_identical(self):
        """Systematic sampling admits the same tuples on both paths."""
        stream = workload(SEED + 2)
        for rate in (0.1, 0.5):
            scalar = run_instrumented(
                build_network, stream, batch=False, sample_rate=rate
            )
            batched = run_instrumented(
                build_network, stream, batch=True, sample_rate=rate
            )
            assert scalar == batched, f"diverged at sample_rate={rate}"

    def test_fan_in_train_of_many_claims_byte_identical(self, monkeypatch):
        """A train at a fan-in box takes one claim per run of one arc; the
        claims add up into one train, so per-box counters and the
        ``engine.train.tuples`` histogram see what the per-tuple engine,
        which takes the train tuple by tuple, sees."""
        trains, claims = [], []
        real_run, real_claim = AuroraEngine._run_train, AuroraEngine._claim

        def run_train(engine, box_id, limit=None):
            trains.append(box_id)
            return real_run(engine, box_id, limit)

        def claim(engine, route, budget):
            taken = real_claim(engine, route, budget)
            if taken is not None:
                claims.append(route.box.id)
            return taken

        def run(batch):
            net = QueryNetwork()
            net.add_box("u", Union(2, cost_per_tuple=0.0005))
            net.add_box("m", Map(lambda v: {"A": v["A"] + 1}, cost_per_tuple=0.001))
            net.connect("in:a", ("u", 0))
            net.connect("in:b", ("u", 1))
            net.connect("u", "m")
            net.connect("m", "out:sink")
            registry = MetricsRegistry()
            tracer = Tracer(sample_rate=0.5)
            engine = AuroraEngine(
                net, train_size=9, batch_execution=batch,
                scheduling_overhead=0.003, metrics=registry, tracer=tracer,
            )
            # Interleaved arrivals: u's two arcs alternate in enqueue
            # clock, so a claim there is one tuple long.
            for i, tup in enumerate(workload(SEED + 4)):
                engine.push("ab"[i % 2], tup)
            engine.run_until_idle()
            engine.flush()
            return dumps(snapshot(registry, sink=tracer.sink))

        scalar = run(batch=False)
        monkeypatch.setattr(AuroraEngine, "_run_train", run_train)
        monkeypatch.setattr(AuroraEngine, "_claim", claim)
        assert run(batch=True) == scalar
        assert claims.count("u") > 2 * trains.count("u")

    def test_same_seed_reruns_byte_identical(self):
        stream = workload(SEED + 3)
        a = run_instrumented(build_network, stream, batch=True)
        b = run_instrumented(build_network, workload(SEED + 3), batch=True)
        assert a == b

    def test_different_seeds_differ(self):
        a = run_instrumented(build_network, workload(1), batch=True)
        b = run_instrumented(build_network, workload(2), batch=True)
        assert a != b


class TestMetricsContent:
    def test_counters_match_engine_state(self):
        stream = workload(SEED + 4)
        registry = MetricsRegistry()
        tracer = Tracer(sample_rate=1.0)
        engine = AuroraEngine(
            build_network(), train_size=9, metrics=registry, tracer=tracer,
        )
        engine.push_many("src", stream)
        engine.run_until_idle()
        engine.flush()
        assert registry.value("engine.tuples_processed") == engine.tuples_processed
        assert registry.value("engine.ingest.tuples", input="src") == len(stream)
        delivered = registry.value("engine.delivered.tuples", stream="sink")
        assert delivered == len(engine.outputs["sink"])
        # Every delivered tuple was traced end-to-end at sample_rate 1.
        assert tracer.sink.count("deliver:sink") == len(engine.outputs["sink"])
        assert tracer.sink.count("source:src") == len(stream)

    def test_disabled_registry_runs_clean(self):
        stream = workload(SEED + 5)
        engine = AuroraEngine(
            build_network(), train_size=9, metrics=MetricsRegistry(enabled=False),
        )
        engine.push_many("src", stream)
        engine.run_until_idle()
        engine.flush()
        assert engine.metrics.snapshot()["counters"] == {}
        assert engine.outputs["sink"]


# -- the columnar axis ----------------------------------------------------------


def compiled_chain(window):
    """Filter -> Map -> Filter -> window, all compiled: one superbox whose
    filters drop some sampled rows and keep others."""
    def build():
        net = QueryNetwork()
        net.add_box("f1", Filter(col("A") != 1, cost_per_tuple=0.001))
        net.add_box("m", columnar_map({"A": col("A"), "B": col("B") + 1},
                                      cost_per_tuple=0.002))
        net.add_box("f2", Filter(col("B") % 4 != 0, cost_per_tuple=0.001))
        net.add_box("w", window())
        net.connect("in:src", "f1")
        net.connect("f1", "m")
        net.connect("m", "f2")
        net.connect("f2", "w")
        net.connect("w", "out:agg")
        return net
    return build


def opaque_mid_chain():
    """A lambda Map inside a compiled chain: the superbox materializes
    mid-run and stamps the remaining stages row by row."""
    net = QueryNetwork()
    net.add_box("f1", Filter(col("A") != 1, cost_per_tuple=0.001))
    net.add_box("m", Map(lambda v: {"A": v["A"], "B": v["B"] + 1}, cost_per_tuple=0.002))
    net.add_box("f2", Filter(col("B") % 4 != 0, cost_per_tuple=0.001))
    net.connect("in:src", "f1")
    net.connect("f1", "m")
    net.connect("m", "f2")
    net.connect("f2", "out:sink")
    return net


def fanned_out():
    """One port feeding two compiled consumers and a sink: a sampled
    tuple is shared by three arcs."""
    net = QueryNetwork()
    net.add_box("f", Filter(col("A") != 1, cost_per_tuple=0.001))
    net.add_box("left", Filter(col("B") % 2 == 0, cost_per_tuple=0.001))
    net.add_box("right", columnar_map({"A": col("A") + 1, "B": col("B")},
                                      cost_per_tuple=0.002))
    net.connect("in:src", "f")
    net.connect("f", "left")
    net.connect("f", "right")
    net.connect("f", "out:tap")
    net.connect("left", "out:left")
    net.connect("right", "out:right")
    return net


COLUMNAR_NETWORKS = {
    "tumble-run": compiled_chain(lambda: Tumble(
        "sum", groupby=("A",), value_attr="B", cost_per_tuple=0.002)),
    "tumble-count": compiled_chain(lambda: Tumble(
        "sum", groupby=("A",), value_attr="B", mode="count", window_size=3,
        cost_per_tuple=0.002)),
    "tumble-timeout": compiled_chain(lambda: Tumble(
        "max", groupby=("A",), value_attr="B", timeout=0.05,
        cost_per_tuple=0.002)),
    "unfused-window": windowed_network,
    "opaque-mid-chain": opaque_mid_chain,
    "fan-out": fanned_out,
}


def run_chunked(build, stream, *, columnar, sample_rate, chunk=17, train_size=5,
                shedder=None):
    """Push ``stream`` in chunks of ``chunk`` — as ColumnarTrains or as
    lists — draining between chunks.  ``chunk`` is not a multiple of
    ``train_size``, so every pushed train is split across claims."""
    registry = MetricsRegistry()
    tracer = Tracer(sample_rate=sample_rate)
    engine = AuroraEngine(
        build(), train_size=train_size, scheduling_overhead=0.003,
        metrics=registry, tracer=tracer, shedder=shedder,
    )
    for start in range(0, len(stream), chunk):
        rows = stream[start:start + chunk]
        if columnar:
            engine.push_train("src", ColumnarTrain.from_tuples(rows))
        else:
            engine.push_many("src", rows)
        if start % (2 * chunk) == 0:
            engine.run_until_idle()
    engine.run_until_idle()
    engine.flush()
    return engine, dumps(snapshot(registry, sink=tracer.sink))


class TestColumnarDeterminism:
    @pytest.mark.parametrize("rate", [0.05, 0.3, 1.0])
    @pytest.mark.parametrize("name", sorted(COLUMNAR_NETWORKS))
    def test_train_pushed_snapshot_equals_list_pushed(self, name, rate):
        build = COLUMNAR_NETWORKS[name]
        # Runs of equal A (windows wider than one tuple) with a gap that
        # fires the timeout variant.
        rng = random.Random(SEED + 6)
        rows = [{"A": (i // 3) % 4, "B": rng.randint(0, 9)} for i in range(120)]
        stream = make_stream(rows[:70], spacing=0.01) + make_stream(
            rows[70:], start_time=2.0, spacing=0.01)
        listed, want = run_chunked(build, stream, columnar=False, sample_rate=rate)
        trains, got = run_chunked(build, stream, columnar=True, sample_rate=rate)
        assert got == want
        assert trains.clock == listed.clock and trains.steps == listed.steps
        for output in listed.outputs:
            assert [(t.values, t.timestamp) for t in trains.outputs[output]] == [
                (t.values, t.timestamp) for t in listed.outputs[output]]
        assert trains.columnar and trains.tracer.sink.count("deliver:") > 0

    def test_filtered_and_surviving_sampled_rows(self):
        """At rate 1 every dropped row's trace ends at the box that
        dropped it and every delivered window descends from the first
        row of its run."""
        rows = [{"A": a, "B": b} for a, b in
                [(0, 1), (0, 2), (1, 5), (2, 3), (2, 6), (3, 1), (3, 1), (0, 2)]]
        engine, _snap = run_chunked(
            COLUMNAR_NETWORKS["tumble-run"], make_stream(rows, spacing=0.01),
            columnar=True, sample_rate=1.0)
        sink = engine.tracer.sink

        def path(trace_id):
            names, nodes = [], sink.tree(trace_id)
            while nodes:
                names.append(nodes[0]["name"])
                nodes = nodes[0]["children"]
            return names

        full = ["source:src", "box:f1", "box:m", "box:f2", "box:w"]
        assert path(0) == full + ["deliver:agg"]  # first row of the A=0 run
        assert path(1) == full                    # folded into that window
        assert path(2) == full[:2]                # A == 1: dropped by f1
        assert path(3) == full[:4]                # B + 1 == 4: dropped by f2
        assert path(4) == full + ["deliver:agg"]  # so the A=2 run starts here
        assert sink.count("deliver:agg") == len(engine.outputs["agg"]) == 4


class TestIngestParity:
    """Empty and fully shed trains leave no trace in the snapshot, on
    either ingestion path."""

    def engine(self, **kwargs):
        registry = MetricsRegistry()
        return registry, AuroraEngine(
            COLUMNAR_NETWORKS["tumble-run"](), metrics=registry, **kwargs)

    def empty_train(self):
        return ColumnarTrain.from_tuples(make_stream([{"A": 0, "B": 0}])).slice(0, 0)

    def test_empty_input_exports_no_ingest_series(self):
        untouched, _ = self.engine()
        by_train, engine = self.engine()
        assert engine.push_train("src", self.empty_train()) == 0
        by_list, engine = self.engine()
        assert engine.push_many("src", []) == 0
        by_observed_list, engine = self.engine(tracer=Tracer(sample_rate=1.0))
        assert engine.push_many("src", iter(())) == 0
        snaps = [dumps(snapshot(r)) for r in (untouched, by_train, by_list, by_observed_list)]
        assert snaps[1:] == snaps[:1] * 3
        assert "engine.ingest.tuples" not in snaps[0]

    def test_fully_shed_train_matches_per_tuple_push(self):
        stream = make_stream([{"A": 0, "B": i} for i in range(12)], spacing=0.01)
        snaps = []
        for push in ("tuple", "many", "train"):
            shedder = LoadShedder(seed=5)
            registry, engine = self.engine(
                shedder=shedder, tracer=Tracer(sample_rate=1.0))
            shedder.drop_probability = {"src": 1.0}  # every coin flip drops
            if push == "tuple":
                admitted = sum(engine.push("src", t) for t in stream)
            elif push == "many":
                admitted = engine.push_many("src", stream)
            else:
                admitted = engine.push_train("src", ColumnarTrain.from_tuples(stream))
            assert admitted == 0 and shedder.tuples_dropped == 12
            assert engine.clock == stream[-1].timestamp and not engine.queued_counts
            snaps.append(dumps(snapshot(registry, sink=engine.tracer.sink)))
        assert snaps[0] == snaps[1] == snaps[2]
        assert "engine.ingest.tuples" not in snaps[0] and "engine.shed.dropped" in snaps[0]


class TestShedderAdmission:
    """Whole-train admission is the per-tuple coin flips, in order."""

    N_SEEDS = 20

    def offered(self, seed):
        rng = random.Random(seed)
        rows = [{"A": (i // 3) % 4, "B": rng.randint(0, 9)} for i in range(90)]
        return make_stream(rows, start_time=1.0, spacing=0.01)

    def run(self, seed, shed_fraction, push):
        registry = MetricsRegistry()
        shedder = LoadShedder(seed=seed)
        tracer = Tracer(sample_rate=0.3)
        engine = AuroraEngine(
            COLUMNAR_NETWORKS["tumble-run"](), train_size=7, metrics=registry,
            shedder=shedder, tracer=tracer,
        )
        # A backlog gives the shedder a load to react to; target_load is
        # then set so that update() asks for exactly ``shed_fraction``
        # (capped at 0.95 per input by the shedder itself).
        backlog = make_stream([{"A": 9, "B": 0}] * 30, spacing=0.01)
        assert engine.push_many("src", backlog) == 30
        shedder.target_load = engine.load_factor() * (1.0 - shed_fraction)
        shedder.update(engine)
        stream = self.offered(seed)
        fresh = [StreamTuple(t.values, t.timestamp) for t in stream]
        for start in range(0, len(stream), 30):
            chunk = fresh[start:start + 30]
            if push == "train":
                engine.push_train("src", ColumnarTrain.from_tuples(chunk))
            elif push == "many":
                engine.push_many("src", chunk)
            else:
                for tup in chunk:
                    engine.push("src", tup)
        p = shedder.drop_probability.get("src", 0.0)
        ingest_clock = engine.clock
        next_draw = shedder._rng.random()
        queued = dict(engine.queued_counts)
        shedder.drop_probability = {}  # the drain's own update() cadence is not under test
        engine.run_until_idle()
        engine.flush()
        return p, {
            "admitted": Counter(
                (name, t.timestamp, tuple(t.values.items()))
                for name, tuples in engine.outputs.items() for t in tuples),
            "tuples_dropped": shedder.tuples_dropped,
            "engine.shed.dropped": registry.total("engine.shed.dropped"),
            "qos_monitor.shed": dict(engine.qos_monitor.shed),
            "ingest_clock": ingest_clock,
            "queued": queued,
            "clock": engine.clock,
            "next_draw": next_draw,
            "snapshot": dumps(snapshot(registry, sink=tracer.sink)),
        }

    @pytest.mark.parametrize("shed_fraction", [0.0, 0.3, 1.0],
                             ids=["p=0", "p=0.3", "p=0.95"])
    def test_push_train_equals_per_tuple_push(self, shed_fraction):
        dropped = 0
        for seed in range(self.N_SEEDS):
            p, per_tuple = self.run(seed, shed_fraction, "tuple")
            assert p == pytest.approx(min(shed_fraction, 0.95))
            for push in ("train", "many"):
                assert self.run(seed, shed_fraction, push) == (p, per_tuple), (seed, push)
            dropped += per_tuple["tuples_dropped"]
            assert per_tuple["tuples_dropped"] == per_tuple["engine.shed.dropped"]
            assert per_tuple["qos_monitor.shed"] == (
                {"agg": per_tuple["tuples_dropped"]} if dropped else {})
        assert (dropped > 0) == (shed_fraction > 0)
