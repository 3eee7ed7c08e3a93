"""Bulk admission: ``push_many`` on a row list is per-tuple ``push``.

A row list offered to ``AuroraEngine.push_many`` is admitted in one call
under a load shedder and a tracer alike: the enqueue clocks are the
running max over every offered row, the shedder makes the same draws in
the same order, the tracer offers the admitted rows in order, and one
``ingest`` entry goes to the decision log.  This property holds that
call to a ``for t in rows: push(t)`` loop on everything either one
touches, with timestamps behind and ahead of the clock.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.engine import AuroraEngine
from repro.core.operators.filter import Filter
from repro.core.operators.map import Map
from repro.core.query import QueryNetwork
from repro.core.shedder import LoadShedder
from repro.core.tuples import StreamTuple
from repro.obs.export import dumps, snapshot
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import SpanSink, Tracer
from repro.reference import replay

START_CLOCK = 5.0  # rows at 0..10 fall both behind and ahead of it


def lone_arc():
    """One input arc into one box: ``push_many`` admits in one call."""
    net = QueryNetwork()
    net.add_box("m", Map(lambda v: {**v, "m": True}, cost_per_tuple=0.001))
    net.connect("in:src", "m")
    net.connect("m", "out:sink")
    return net


def fan_out():
    """An input feeding two boxes: an ingestion barrier (per-tuple push)."""
    net = lone_arc()
    net.add_box("f", Filter(lambda t: t["A"] % 2 == 0, cost_per_tuple=0.002))
    net.connect("in:src", "f")
    net.connect("f", "out:even")
    return net


TOPOLOGIES = {"lone-arc": lone_arc, "fan-out": fan_out}

# Lengths drawn uniformly, so long lists (where a 0.05 tracer samples
# and a shedder both drops and admits) are as common as short ones.
rows_strategy = st.integers(0, 40).flatmap(lambda n: st.lists(
    st.tuples(st.integers(0, 9), st.floats(0.0, 10.0, allow_nan=False)),
    min_size=n, max_size=n,
))


def admit(topology, specs, drop_p, rate, logged, seed, bulk, as_iter):
    """Offer ``specs`` once, in bulk or tuple by tuple; return everything
    the admission touched, then what draining and replaying it gives."""
    registry = MetricsRegistry()
    sink = SpanSink()
    tracer = Tracer(sink, sample_rate=rate)
    shedder = LoadShedder(seed=seed)
    engine = AuroraEngine(
        TOPOLOGIES[topology](), train_size=4, scheduling_overhead=0.0005,
        metrics=registry, tracer=tracer, shedder=shedder,
    )
    if logged:
        engine.decision_log = []
    engine.run_until(START_CLOCK)  # an idle jump, logged for replay
    if drop_p:
        shedder.drop_probability = {"src": drop_p}
    rows = [StreamTuple({"A": a, "i": i}, ts) for i, (a, ts) in enumerate(specs)]
    if bulk:
        admitted = engine.push_many("src", iter(rows) if as_iter else rows)
    else:
        admitted = sum(engine.push("src", tup) for tup in rows)
    arcs = engine.network.inputs["src"]
    state = {
        "admitted": admitted,
        "clock": engine.clock,
        "queues": [
            [(t.values, t.timestamp, t.trace and (t.trace.trace_id, t.trace.span_id))
             for t in arc.queue]
            for arc in arcs
        ],
        "queue_times": [list(arc.queue_times) for arc in arcs],
        "transferred": [arc.tuples_transferred for arc in arcs],
        "rng": shedder._rng.getstate(),
        "tuples_dropped": shedder.tuples_dropped,
        "qos_shed": dict(engine.qos_monitor.shed),
        "offers": tracer.offers,
        "accumulator": tracer._accumulator,
        "traces_started": tracer.traces_started,
        "spans": [(s.trace_id, s.span_id, s.parent_id, s.name, s.start, s.end)
                  for s in sink.spans],
        "snapshot": dumps(snapshot(registry)),
    }
    shedder.drop_probability = {}  # the drain's update() cadence is not under test
    engine.run_until_idle()
    engine.flush()
    state["outputs"] = {
        name: [(t.values, t.timestamp) for t in tuples]
        for name, tuples in engine.outputs.items()
    }
    state["end_clock"] = engine.clock
    if logged:
        ref = replay(TOPOLOGIES[topology](), engine.decision_log)
        state["replay"] = (
            {name: [(t.values, t.timestamp) for t in tuples]
             for name, tuples in ref.outputs.items()},
            ref.clock, ref.steps,
        )
    return state


# What the property saw, for the non-vacuity test below.
SEEN = {"dropped_and_sampled": 0}

DROP_PROBABILITIES = (0.0, 0.3, 0.95)
SAMPLE_RATES = (0.0, 0.05, 1 / 3)


@settings(max_examples=60, deadline=None)
@given(
    topology=st.sampled_from(sorted(TOPOLOGIES)),
    specs=rows_strategy,
    logged=st.booleans(),
    seed=st.integers(0, 2**16),
    as_iter=st.booleans(),
)
@example(topology="lone-arc", specs=[(i % 10, i * 0.5) for i in range(20)],
         logged=True, seed=1, as_iter=False)
def test_push_many_equals_push_loop(topology, specs, logged, seed, as_iter):
    """Every drop probability x tracer rate, on the same offered rows."""
    for drop_p in DROP_PROBABILITIES:
        for rate in SAMPLE_RATES:
            args = (topology, specs, drop_p, rate, logged, seed)
            bulk = admit(*args, bulk=True, as_iter=as_iter)
            per_tuple = admit(*args, bulk=False, as_iter=False)
            assert bulk == per_tuple, (drop_p, rate)
            if logged:
                outputs, clock, _steps = bulk["replay"]
                assert outputs == bulk["outputs"]
                assert clock == bulk["end_clock"]
            if bulk["tuples_dropped"] and bulk["traces_started"]:
                SEEN["dropped_and_sampled"] += 1


def test_some_case_drops_one_row_and_samples_another():
    SEEN["dropped_and_sampled"] = 0
    test_push_many_equals_push_loop()
    assert SEEN["dropped_and_sampled"] > 0


def test_a_shed_row_does_not_hold_the_clock_back():
    """The enqueue clock is the running max over every *offered* row:
    a dropped row ahead of the clock still moves it."""
    args = ("lone-arc", [(0, 6.0), (1, 9.0), (2, 7.0)], 0.95, 0.0, True, 3)
    bulk = admit(*args, bulk=True, as_iter=False)
    assert bulk == admit(*args, bulk=False, as_iter=False)
    assert bulk["clock"] == 9.0
    assert bulk["tuples_dropped"] >= 1
