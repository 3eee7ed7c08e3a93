"""Property test: superbox fusion is semantically invisible.

For dozens of seeded random query networks, running the same workload
with fusion on and off must produce identical delivered outputs,
identical virtual clocks and step counts, identical per-box logical
statistics (tuples_in/out, busy_time, latency accounting), and
byte-identical observability snapshots (metrics and, on traced seeds,
span trees).

The generator mixes opaque lambdas with compiled column expressions
(roughly half and half), and each seed additionally runs two columnar
configurations — the same workload admitted as
:class:`~repro.core.columnar.ColumnarTrain` segments via
``push_train`` — which must be bit-identical to their list-pushed
twins on *every* axis, per-box stats and snapshot included: the
struct-of-arrays representation is an encoding, not a semantic.

Every configuration runs with the engine's decision log on, and the
schedule replay (:func:`repro.reference.replay`) of that log on a fresh
twin of the network is the reference: same outputs per stream in order,
clock, steps and per-box ``tuples_in/out``.  ``busy_time`` and latency
sums are granularity-exempt against it (a batched train books them per
train); the hand-over test holds them, too, equal to the per-tuple
engine the replay replaces.
"""

import random

from repro.core.columnar import ColumnarTrain, col
from repro.core.engine import AuroraEngine
from repro.core.operators.case_filter import CaseFilter
from repro.core.operators.filter import Filter
from repro.core.operators.map import Map, columnar_map
from repro.core.operators.tumble import Tumble
from repro.core.operators.union import Union
from repro.core.operators.windows import Slide
from repro.core.operators.wsort import WSort
from repro.core.query import QueryNetwork
from repro.core.tuples import make_stream
from repro.obs.export import dumps, snapshot
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer
from repro.reference import box_stats, replay

from tests.core.test_reference import rows_of, traffic

N_SEEDS = 60
TRACED_SEEDS = frozenset(range(0, N_SEEDS, 10))  # tracing is heavy; sample it


def random_network(rng):
    """A random boxes-and-arrows network: fusable chains broken up by
    windowed boxes, fan-out taps, unions, connection points and
    multi-output tails."""
    net = QueryNetwork()
    counter = iter(range(10_000))

    def fusable_op():
        kind = rng.randrange(3)
        cost = rng.choice([0.001, 0.002, 0.003])
        compiled = rng.random() < 0.5
        if kind == 0:
            m = rng.choice([2, 3, 5])
            if compiled:
                return Filter(col("A") % m != 0, cost_per_tuple=cost)
            return Filter(lambda t, m=m: t["A"] % m != 0, cost_per_tuple=cost)
        if kind == 1:
            d = rng.randint(1, 3)
            if compiled:
                return columnar_map(
                    {"G": col("G"), "A": col("A") + d}, cost_per_tuple=cost
                )
            return Map(
                lambda v, d=d: {"G": v["G"], "A": v["A"] + d}, cost_per_tuple=cost
            )
        m = rng.choice([2, 3])
        if compiled:
            return CaseFilter([col("A") % m == 0], cost_per_tuple=cost)
        return CaseFilter([lambda t, m=m: t["A"] % m == 0], cost_per_tuple=cost)

    def windowed_op():
        """A random windowed box whose output schema stays {G, A}, so it
        can sit anywhere in a chain.  Covers every columnar window
        kernel: Tumble run (with and without timeouts that actually fire
        — inputs are spaced 0.002 within a chunk with ~1.0 gaps between
        chunks), Tumble count, Slide, and WSort's buffering regimes."""
        agg = rng.choice(["sum", "cnt", "max", "avg"])
        kind = rng.randrange(5)
        if kind == 0:
            return Tumble(
                agg, groupby=("G",), value_attr="A", result_attr="A",
                mode="count", window_size=rng.randint(2, 4),
            )
        if kind == 1:
            return Tumble(
                agg, groupby=("G",), value_attr="A", result_attr="A",
                mode="run",
            )
        if kind == 2:
            return Tumble(
                agg, groupby=("G",), value_attr="A", result_attr="A",
                mode="run", timeout=rng.choice([0.004, 0.05]),
            )
        if kind == 3:
            return Slide(
                agg, groupby=("G",), value_attr="A", result_attr="A",
                size=rng.randint(1, 4),
            )
        return WSort(("A", "G"), timeout=rng.choice([float("inf"), 0.05]))

    def extend(prev, length):
        """Grow a chain of `length` boxes from `prev` (input or box id)."""
        for _ in range(length):
            box_id = f"b{next(counter)}"
            if rng.random() < 0.15:
                op = windowed_op()
            else:
                op = fusable_op()
            net.add_box(box_id, op)
            net.connect(prev, box_id, connection_point=rng.random() < 0.1)
            prev = box_id
        return prev

    n_inputs = rng.randint(1, 2)
    terminals = [extend(f"in:s{i}", rng.randint(1, 5)) for i in range(n_inputs)]

    if n_inputs == 2 and rng.random() < 0.5:
        union_id = f"b{next(counter)}"
        net.add_box(union_id, Union(2, cost_per_tuple=0.001))
        net.connect(terminals[0], (union_id, 0))
        net.connect(terminals[1], (union_id, 1))
        terminals = [extend(union_id, rng.randint(0, 3))]

    # Fan-out taps: a second consumer chain off an existing box.
    for _ in range(rng.randint(0, 2)):
        tap = rng.choice(sorted(net.boxes))
        terminals.append(extend(tap, rng.randint(1, 3)))

    for i, terminal in enumerate(terminals):
        if rng.random() < 0.3:
            # Multi-output tail: a 2-way CaseFilter feeding two sinks.
            case_id = f"b{next(counter)}"
            tail_pred = (
                col("A") % 2 == 0
                if rng.random() < 0.5
                else (lambda t: t["A"] % 2 == 0)
            )
            net.add_box(
                case_id,
                CaseFilter([tail_pred], with_else_port=True),
            )
            net.connect(terminal, case_id)
            net.connect((case_id, 0), f"out:o{i}_even")
            net.connect((case_id, 1), f"out:o{i}_odd")
        else:
            net.connect(terminal, f"out:o{i}")
    net.validate()
    return net


def run_config(seed, fusion, columnar_push=False, **flags):
    rng = random.Random(seed)
    net = random_network(rng)
    registry = MetricsRegistry()
    tracer = Tracer(sample_rate=1.0) if seed in TRACED_SEEDS else None
    engine = AuroraEngine(
        net,
        train_size=rng.randint(3, 9),
        scheduling_overhead=0.0003,
        fusion=fusion,
        metrics=registry,
        tracer=tracer,
        **flags,
    )
    engine.decision_log = []
    inputs = sorted(net.inputs)
    n_tuples = rng.randint(30, 60)
    # Interleave pushes and draining so trains start from varied queue depths.
    for chunk in range(3):
        for idx, name in enumerate(inputs):
            # G runs of length 2 exercise run-mode windows wider than one
            # tuple while still interleaving groups across train bounds.
            rows = [
                {"G": (i // 2) % 3, "A": i * (idx + 1) + chunk}
                for i in range(n_tuples // 3)
            ]
            stream = make_stream(rows, start_time=chunk * 1.0, spacing=0.002)
            if columnar_push:
                # The columnar axis: the same tuples arrive as one
                # struct-of-arrays segment per chunk (push_train falls
                # back by itself at ingestion barriers, e.g. traced
                # engines or fanned-out inputs).
                engine.push_train(name, ColumnarTrain.from_tuples(stream))
            else:
                engine.push_many(name, stream)
        engine.run_until_idle()
    engine.flush()
    reference = replay(random_network(random.Random(seed)), engine.decision_log)
    return {
        "outputs": rows_of(engine.outputs),
        "clock": engine.clock,
        "steps": engine.steps,
        "tuples_processed": engine.tuples_processed,
        "stats": box_stats(net),
        "snapshot": dumps(
            snapshot(registry, sink=tracer.sink if tracer else None)
        ),
        "fused_runs": sorted(engine.fused_runs()),
        "reference": {
            "outputs": rows_of(reference.outputs),
            "clock": reference.clock,
            "steps": reference.steps,
            "stats": reference.boxes,
        },
    }


def assert_replays(result, label):
    reference = result["reference"]
    assert result["outputs"] == reference["outputs"], label
    assert result["clock"] == reference["clock"], label
    assert result["steps"] == reference["steps"], label
    assert traffic(result["stats"]) == traffic(reference["stats"]), label


def test_fusion_is_invisible_across_random_networks():
    seeds_with_fusion = 0
    for seed in range(N_SEEDS):
        unfused, fused = run_config(seed, False), run_config(seed, True)
        # Fused == unfused, bit-exact, and both are the replay of their
        # own schedule.
        assert fused["outputs"] == unfused["outputs"], seed
        assert fused["clock"] == unfused["clock"], seed
        assert fused["steps"] == unfused["steps"], seed
        assert fused["tuples_processed"] == unfused["tuples_processed"], seed
        assert fused["stats"] == unfused["stats"], seed
        assert fused["snapshot"] == unfused["snapshot"], seed
        assert_replays(unfused, ("unfused", seed))
        assert_replays(fused, ("fused", seed))
        # The columnar axis: ColumnarTrain segments pushed via
        # push_train must be bit-identical to the list-pushed twin on
        # EVERY axis — including per-box stats and the obs snapshot.
        for twin in (unfused, fused):
            is_fused = twin is fused
            columnar = run_config(seed, is_fused, columnar_push=True)
            label = ("columnar", "fused" if is_fused else "unfused", seed)
            assert columnar["outputs"] == twin["outputs"], label
            assert columnar["clock"] == twin["clock"], label
            assert columnar["steps"] == twin["steps"], label
            assert columnar["tuples_processed"] == twin["tuples_processed"], label
            assert columnar["stats"] == twin["stats"], label
            assert columnar["snapshot"] == twin["snapshot"], label
            assert columnar["fused_runs"] == twin["fused_runs"], label
            assert_replays(columnar, label)
        if fused["fused_runs"]:
            seeds_with_fusion += 1
    # The generator must actually exercise fusion, not vacuously pass.
    assert seeds_with_fusion >= N_SEEDS // 3


def test_replay_is_the_per_tuple_engine():
    """The hand-over: over the whole corpus the schedule replay equals
    the per-tuple engine (``batch_execution=False``) on every axis,
    ``busy_time`` and latency sums included, so the replay can take over
    as the reference that engine was.  The per-tuple engine's obs
    snapshot — which the replay does not model — still equals the
    fused engine's."""
    for seed in range(N_SEEDS):
        per_tuple = run_config(seed, False, batch_execution=False)
        reference = per_tuple["reference"]
        assert per_tuple["outputs"] == reference["outputs"], seed
        assert per_tuple["clock"] == reference["clock"], seed
        assert per_tuple["steps"] == reference["steps"], seed
        assert per_tuple["stats"] == reference["stats"], seed
        assert per_tuple["snapshot"] == run_config(seed, True)["snapshot"], seed
