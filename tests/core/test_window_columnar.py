"""Columnar window kernels: segment-boundary edge cases.

The engine-level property harness (test_fusion_property) sweeps random
networks; these tests pin the specific boundary conditions the kernels
must honour — open windows carried across 3+ claims, timeouts landing
exactly on a segment edge, empty-train claims, count-mode groups
interleaved across trains — plus the aggregate segment/fold kernel
contract itself, WSort's lazy train absorption, and the exact-or-decline
contract (a kernel that cannot be exact returns None, state untouched,
and the caller's row branch takes the claim).

Every equivalence check compares a columnar-driven operator against a
scalar twin on emissions (port, values, timestamp),
``repr(snapshot())`` byte equality (dict insertion order included) and
public counters.
"""

from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.aggregates import (
    DECLINED,
    get_aggregate,
    segment_fold,
    segment_results,
)
from repro.core.columnar import ColumnarTrain, group_rows
from repro.core.engine import AuroraEngine
from repro.core.operators.filter import Filter
from repro.core.operators.map import columnar_map, extend
from repro.core.operators.tumble import Tumble
from repro.core.operators.windows import Slide
from repro.core.operators.wsort import WSort
from repro.core.columnar import col
from repro.core.query import QueryNetwork
from repro.core.scheduler import LongestQueueScheduler
from repro.core.tuples import StreamTuple, make_stream
from repro.obs.export import dumps, snapshot
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer

KERNEL_AGGS = ["cnt", "sum", "max", "min", "avg", "first", "last"]


def stream_of(rows, start=0.0, spacing=0.002):
    return make_stream(rows, start_time=start, spacing=spacing)


def scalar_run(op, tuples):
    out = []
    for tup in tuples:
        out.extend(op.process(tup, port=0))
    return out


def columnar_run(op, trains):
    out = []
    for train in trains:
        emissions = op.process_columnar(train, port=0)
        if emissions is None:  # declined: the caller's row branch takes the claim
            out.extend(op.process_batch(train.to_tuples(), port=0))
            continue
        for port, sub in emissions:
            out.extend((port, tup) for tup in sub.to_tuples())
    return out


def emission_key(emissions):
    return [
        (port, list(t.values.items()), repr(t.timestamp))
        for port, t in emissions
    ]


def assert_twin(make_op, tuples, splits):
    """Columnar claims split at ``splits`` == the scalar per-tuple loop."""
    scalar_op, columnar_op = make_op(), make_op()
    expected = scalar_run(scalar_op, tuples)
    bounds = [0, *splits, len(tuples)]
    trains = [
        ColumnarTrain.from_tuples(tuples[a:b])
        for a, b in zip(bounds, bounds[1:])
        if b > a
    ]
    got = columnar_run(columnar_op, trains)
    assert emission_key(got) == emission_key(expected)
    assert repr(columnar_op.snapshot()) == repr(scalar_op.snapshot())
    # Whatever is still buffered must drain identically.
    assert emission_key(scalar_op.flush()) == emission_key(columnar_op.flush())
    return scalar_op, columnar_op


# -- aggregate kernel contract ------------------------------------------------


class TestSegmentKernels:
    @pytest.mark.parametrize("name", KERNEL_AGGS)
    @pytest.mark.parametrize(
        "values",
        [
            [3, 1, 4, 1, 5, 9, 2, 6, 5, 3],
            [0.1, -2.5, 3.75, 0.0, -0.0, 1e16, 1.0, -1e16, 2.0, 0.3],
            [True, False, True, True, False, True, False, False, True, True],
        ],
        ids=["int", "float", "bool"],
    )
    def test_segment_results_exact(self, name, values):
        agg = get_aggregate(name)
        column = ColumnarTrain.from_tuples(
            stream_of([{"A": v} for v in values])
        ).columns["A"]
        starts = np.array([0, 2, 3, 7], dtype=np.intp)
        ends = np.array([2, 3, 7, 10], dtype=np.intp)
        got = segment_results(agg, column, starts, ends)
        expected = [
            agg.apply(values[a:b]) for a, b in zip(starts.tolist(), ends.tolist())
        ]
        # Kernels may return numpy arrays (consumers emit them as train
        # columns); the contract is bit-exact values after .item().
        normalized = [
            v.item() if isinstance(v, np.generic) else v for v in list(got)
        ]
        assert [repr(v) for v in normalized] == [repr(v) for v in expected]

    @pytest.mark.parametrize("name", KERNEL_AGGS)
    def test_segment_fold_resumes_open_state(self, name):
        agg = get_aggregate(name)
        head, tail = [2.5, -1.25, 7.0], [0.5, 1e16, 1.0, -3.0]
        state = agg.initial()
        for v in head:
            state = agg.update(state, v)
        column = np.asarray(tail, dtype=np.float64)
        folded = segment_fold(agg, state, column, 0, len(tail))
        expected = agg.initial()
        for v in head + tail:
            expected = agg.update(expected, v)
        assert repr(agg.result(folded)) == repr(agg.result(expected))

    def test_segment_fold_empty_segment_is_identity(self):
        agg = get_aggregate("sum")
        state = object()  # must come back untouched, not coerced
        assert segment_fold(agg, state, np.arange(4), 2, 2) is state

    def test_object_dtype_declines_to_exact_fallback(self):
        agg = get_aggregate("sum")
        column = np.array([1, "x", 2], dtype=object)
        starts, ends = np.array([0], dtype=np.intp), np.array([1], dtype=np.intp)
        assert list(segment_results(agg, column, starts, ends)) == [1]
        assert agg.fold_kernel(0, column, 0, 1) is DECLINED

    def test_int_state_float_column_fold_matches_scalar_chain(self):
        # A window opened on ints, continued with floats: the fold must
        # replay the scalar update chain (int state + float values).
        agg = get_aggregate("sum")
        state = agg.update(agg.initial(), 3)  # int state
        column = np.asarray([0.1, 0.2, 0.3], dtype=np.float64)
        folded = segment_fold(agg, state, column, 0, 3)
        expected = ((3 + 0.1) + 0.2) + 0.3
        assert repr(folded) == repr(expected)


# -- Tumble run mode ----------------------------------------------------------


class TestTumbleRunSegments:
    def test_open_window_spans_three_plus_segments(self):
        # One run of 11 equal keys split across 4 claims: nothing may be
        # emitted until the key finally changes in the 5th.
        rows = [{"G": 7, "A": i} for i in range(11)] + [{"G": 8, "A": 99}]
        tuples = stream_of(rows)

        def make():
            return Tumble("sum", groupby=("G",), value_attr="A", result_attr="A")

        scalar_op, columnar_op = assert_twin(make, tuples, splits=[3, 5, 8, 11])
        assert columnar_op.windows_emitted == scalar_op.windows_emitted

    def test_carried_window_closes_mid_segment(self):
        rows = (
            [{"G": 0, "A": 1}, {"G": 0, "A": 2}]
            + [{"G": 1, "A": 3}, {"G": 1, "A": 4}, {"G": 2, "A": 5}]
        )
        assert_twin(
            lambda: Tumble("avg", groupby=("G",), value_attr="A", result_attr="A"),
            stream_of(rows),
            splits=[2],
        )

    def test_multi_attr_groupby_and_float_values(self):
        rows = [
            {"G": i // 3 % 2, "H": i // 6, "A": 0.25 * i - 1.0} for i in range(14)
        ]
        assert_twin(
            lambda: Tumble(
                "sum", groupby=("G", "H"), value_attr="A", result_attr="A"
            ),
            stream_of(rows),
            splits=[4, 9],
        )


class TestTumbleTimeoutAtSegmentEdge:
    def test_timeout_fires_exactly_at_segment_edge(self):
        # Gap between the last tuple of claim 1 and the first of claim 2
        # is exactly the timeout: the open window must flush before the
        # second claim's first tuple is folded in.
        first = stream_of([{"G": 1, "A": i} for i in range(4)], start=0.0)
        second = stream_of([{"G": 1, "A": 10 + i} for i in range(3)], start=0.506)
        tuples = first + second
        assert (tuples[4].timestamp - tuples[3].timestamp) == pytest.approx(0.5)

        def make():
            return Tumble(
                "sum", groupby=("G",), value_attr="A", result_attr="A",
                timeout=0.5,
            )

        assert_twin(make, tuples, splits=[4])

    def test_timeout_gap_interior_to_one_claim(self):
        # The same gap arriving inside a single claim must chunk the
        # train and fire the timeout between the chunks.
        first = stream_of([{"G": 1, "A": i} for i in range(4)], start=0.0)
        second = stream_of([{"G": 1, "A": 10 + i} for i in range(3)], start=0.506)
        assert_twin(
            lambda: Tumble(
                "sum", groupby=("G",), value_attr="A", result_attr="A",
                timeout=0.5,
            ),
            first + second,
            splits=[],
        )

    def test_sub_timeout_gap_does_not_fire(self):
        first = stream_of([{"G": 1, "A": i} for i in range(4)], start=0.0)
        second = stream_of([{"G": 1, "A": 10 + i} for i in range(3)], start=0.5059)
        assert_twin(
            lambda: Tumble(
                "sum", groupby=("G",), value_attr="A", result_attr="A",
                timeout=0.5,
            ),
            first + second,
            splits=[4],
        )


# -- Tumble count mode --------------------------------------------------------


class TestTumbleCountSegments:
    def test_groups_interleaved_across_trains(self):
        # Three groups round-robin; window_size 3 closes each group's
        # window across train boundaries, never at them.
        rows = [{"G": i % 3, "A": i * i} for i in range(20)]
        scalar_op, columnar_op = assert_twin(
            lambda: Tumble(
                "sum", groupby=("G",), value_attr="A", result_attr="A",
                mode="count", window_size=3,
            ),
            stream_of(rows),
            splits=[4, 7, 13],
        )
        assert columnar_op.windows_emitted == scalar_op.windows_emitted

    def test_window_size_one_every_tuple_closes(self):
        rows = [{"G": i % 2, "A": i} for i in range(7)]
        assert_twin(
            lambda: Tumble(
                "max", groupby=("G",), value_attr="A", result_attr="A",
                mode="count", window_size=1,
            ),
            stream_of(rows),
            splits=[2, 3],
        )

    def test_count_mode_with_timeout_chunking(self):
        first = stream_of([{"G": i % 2, "A": i} for i in range(5)], start=0.0)
        second = stream_of(
            [{"G": i % 2, "A": 50 + i} for i in range(5)], start=2.0
        )
        assert_twin(
            lambda: Tumble(
                "cnt", groupby=("G",), value_attr="A", result_attr="A",
                mode="count", window_size=4, timeout=1.0,
            ),
            first + second,
            splits=[5],
        )

    def test_ungroupable_keys_fall_back_exactly(self):
        # Unorderable mixed-type keys defeat np.unique's sort; the claim
        # must take the exact list path with identical results.
        rows = [{"G": 1 if i % 2 else "x", "A": i} for i in range(8)]
        tuples = stream_of(rows)
        assert group_rows([ColumnarTrain.from_tuples(tuples).columns["G"]]) is None
        assert_twin(
            lambda: Tumble(
                "sum", groupby=("G",), value_attr="A", result_attr="A",
                mode="count", window_size=2,
            ),
            tuples,
            splits=[3],
        )


# -- empty and metadata-carrying claims --------------------------------------


class TestDegenerateClaims:
    def empty_train(self):
        return ColumnarTrain(
            ("G", "A"),
            {"G": np.empty(0, dtype=np.int64), "A": np.empty(0, dtype=np.int64)},
            np.empty(0, dtype=np.float64),
        )

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Tumble("sum", groupby=("G",), value_attr="A", timeout=0.1),
            lambda: Tumble(
                "sum", groupby=("G",), value_attr="A", mode="count", window_size=2
            ),
            lambda: Slide("sum", groupby=("G",), value_attr="A", size=2),
            lambda: WSort(("A",)),
        ],
        ids=["tumble-run", "tumble-count", "slide", "wsort"],
    )
    def test_empty_claim_is_a_no_op(self, make):
        op = make()
        seed = stream_of([{"G": 0, "A": 1}, {"G": 0, "A": 2}])
        op.process_columnar(ColumnarTrain.from_tuples(seed))
        before = repr(op.snapshot())
        assert op.process_columnar(self.empty_train()) == []
        assert repr(op.snapshot()) == before

    def test_traced_train_takes_exact_path(self):
        tuples = stream_of([{"G": i % 2, "A": i} for i in range(6)])
        for tup in tuples:
            tup.trace = ("span", tup.timestamp)
        assert_twin(
            lambda: Tumble(
                "sum", groupby=("G",), value_attr="A", result_attr="A",
                mode="count", window_size=2,
            ),
            tuples,
            splits=[3],
        )


# -- exact or decline ---------------------------------------------------------


def with_traces(tuples):
    for tup in tuples:
        tup.trace = ("span", tup.timestamp)
    return tuples


def slide(name="sum"):
    return Slide(name, groupby=("G",), value_attr="A", size=3)


PLAIN = [{"G": i % 2, "A": i} for i in range(6)]

# One row per whole-claim decline site (Slide's first site once per
# condition): (operator, rows it has already seen, the claim it declines).
DECLINES = {
    "slide-traced": (slide, PLAIN, with_traces(stream_of(PLAIN))),
    "slide-unregistered-aggregate": (
        lambda: slide("avg_partial"), PLAIN, stream_of(PLAIN),
    ),
    "slide-ungroupable-keys": (
        slide, PLAIN, stream_of([{"G": 1 if i % 2 else "x", "A": i} for i in range(6)]),
    ),
    "slide-object-values": (
        slide, PLAIN, stream_of([{"G": i % 2, "A": 2**70 + i} for i in range(6)]),
    ),
    "slide-dtype-promotion": (
        slide, [{"G": i % 2, "A": 0.5 * i} for i in range(6)], stream_of(PLAIN),
    ),
    "slide-selection-hazard": (
        lambda: slide("max"), [{"G": 0, "A": 1.0}],
        stream_of([{"G": 0, "A": v} for v in (0.0, -0.0, 1.0)]),
    ),
    "wsort-finite-timeout": (
        lambda: WSort(("A",), timeout=0.005),
        [{"A": 5 - i} for i in range(4)], stream_of([{"A": 9}, {"A": 0}], start=1.0),
    ),
}


class TestDeclines:
    @pytest.mark.parametrize("case", DECLINES)
    def test_decline_returns_none_and_touches_no_state(self, case):
        make, seen, claim = DECLINES[case]
        op = make()
        op.process_batch(stream_of(seen))
        before = repr(op.snapshot())
        assert op.process_columnar(ColumnarTrain.from_tuples(claim)) is None
        assert repr(op.snapshot()) == before

    def test_wsort_declines_once_it_has_emitted(self):
        # Infinite timeout, but a flush has emitted: arrivals may now be
        # discarded, so the parking regime is over for good.
        op = WSort(("A",))
        op.process_columnar(ColumnarTrain.from_tuples(stream_of([{"A": 3}, {"A": 1}])))
        assert len(op.flush()) == 2
        before = repr(op.snapshot())
        late = ColumnarTrain.from_tuples(stream_of([{"A": 0}, {"A": 7}], start=1.0))
        assert op.process_columnar(late) is None
        assert repr(op.snapshot()) == before
        assert [t["A"] for _port, t in op.process_batch(late.to_tuples()) + op.flush()] == [7]
        assert op.tuples_discarded == 1


def test_no_operator_hides_a_row_barrier():
    """Where a train becomes rows is the engine's decision: the private
    decode -> row kernel -> re-encode helper is gone from ``src/``, and
    one operator site still runs the row kernel on a decoded train —
    count-mode Tumble's mid-train chunk, which cannot decline."""
    package = Path(repro.__file__).parent
    assert [
        path.name for path in package.rglob("*.py")
        if "emissions_to_trains" in path.read_text()
    ] == []
    assert [
        path.name
        for path in sorted((package / "core" / "operators").glob("*.py"))
        for line in path.read_text().splitlines()
        if "process_batch(" in line and "to_tuples()" in line
    ] == ["tumble.py"]


def slide_mixed_queue_rounds():
    # A numeric train, then an object-valued one.  No box left in src/
    # both bursts and declines, so a backlog behind ``w`` needs the
    # ``backed_up`` engine below: ``w`` runs twice before ``m`` does,
    # and the declined claim's rows queue behind the segment the first
    # claim left there — the mixed-queue barrier.  Traced, ``Slide``
    # declines a claim with a sampled row in it: the 1-in-4 sampler's
    # first hit of round 2 (A == 42) is one ``f`` drops, so that first
    # claim stays a segment there too.
    yield [stream_of([{"G": i % 3, "A": i} for i in range(20)])]
    yield [
        stream_of([{"G": i % 3, "A": 39 + i} for i in range(10)], start=1.0),
        stream_of([{"G": i % 3, "A": 2**70 + i} for i in range(10)], start=1.1),
        stream_of([{"G": i % 3, "A": 60 + i} for i in range(10)], start=1.2),
    ]


def slide_rounds():
    yield [stream_of([{"G": i % 3, "A": i} for i in range(20)])]
    yield [
        stream_of([{"G": i % 3, "A": 2**70 + i} for i in range(10)], start=1.0),
        stream_of([{"G": i % 3, "A": 40 + i} for i in range(10)], start=1.1),
    ]


def wsort_rounds():
    yield [stream_of([{"G": i % 3, "A": (13 * i) % 17} for i in range(20)])]
    yield [stream_of([{"G": 0, "A": 5}, {"G": 1, "A": 30}], start=3.0)]


def engine_slide():
    return Slide("sum", groupby=("G",), value_attr="A", size=3, result_attr="A")


def backed_up():
    """Section 2.3's ablation engine (no train push-through) under the
    longest-queue discipline: boxes run back to back, so arcs back up."""
    return {"push_trains": False, "scheduler": LongestQueueScheduler()}


# window -> (operator, pushes per round, share of its claims declined,
# engine arguments beyond the default)
ENGINE_DECLINES = {
    "slide-mixed-queue": (engine_slide, slide_mixed_queue_rounds, "some", backed_up),
    "slide-object-values": (engine_slide, slide_rounds, "some", dict),
    "wsort-finite-timeout": (
        lambda: WSort(("A",), timeout=0.01), wsort_rounds, "all", dict,
    ),
}


class TestDeclinedClaimsInTheEngine:
    """A declined claim takes the engine's row branch: the same tuples
    pushed as trains and as rows agree on every accounting axis, with a
    compiled ``m -> g`` tail downstream of the declining window."""

    def run(self, case, trains, fusion, sample_rate):
        make, rounds, _share, engine_arguments = ENGINE_DECLINES[case]
        net = QueryNetwork()
        net.add_box("f", Filter(col("A") % 7 != 0))
        net.add_box("w", make())
        net.add_box("m", extend("B", col("A") + 1))
        net.add_box("g", Filter(col("B") % 5 != 0))
        for source, target in [("in:s", "f"), ("f", "w"), ("w", "m"), ("m", "g"), ("g", "out:o")]:
            net.connect(source, target)
        registry = MetricsRegistry()
        tracer = Tracer(sample_rate=sample_rate) if sample_rate else None
        engine = AuroraEngine(
            net, train_size=5, fusion=fusion, metrics=registry, tracer=tracer,
            **engine_arguments(),
        )
        window = net.boxes["w"].operator
        kernel, declined = window.process_columnar, []
        (behind_w,) = net.boxes["m"].input_arcs.values()
        expand, mixed = behind_w.materialize_segments, []

        def barrier():
            mixed.append(0 < behind_w._segments < len(behind_w.queue))
            expand()

        behind_w.materialize_segments = barrier

        def spy(train, port=0):
            out = kernel(train, port=port)
            declined.append(out is None)
            return out

        window.process_columnar = spy
        for pushes in rounds():
            for tuples in pushes:
                if trains:
                    engine.push_train("s", ColumnarTrain.from_tuples(tuples))
                else:
                    engine.push_many("s", tuples)
            engine.run_until_idle()
        engine.flush()
        assert any(mixed) == (trains and engine_arguments is backed_up)
        return declined, {
            "outputs": [(t.values, t.timestamp) for t in engine.outputs["o"]],
            "clock": engine.clock,
            "steps": engine.steps,
            "tuples_processed": engine.tuples_processed,
            "stats": {
                box_id: (
                    box.tuples_in, box.tuples_out, box.busy_time,
                    box.latency_sum, box.latency_count,
                )
                for box_id, box in net.boxes.items()
            },
            "snapshot": dumps(snapshot(registry, sink=tracer.sink if tracer else None)),
        }

    @pytest.mark.parametrize("sample_rate", [None, 0.25], ids=["untraced", "traced"])
    @pytest.mark.parametrize("fusion", [True, False], ids=["fused", "unfused"])
    @pytest.mark.parametrize("case", ENGINE_DECLINES)
    def test_trains_equal_rows(self, case, fusion, sample_rate):
        declined, as_trains = self.run(case, True, fusion, sample_rate)
        never_asked, as_rows = self.run(case, False, fusion, sample_rate)
        assert never_asked == [] and as_trains["outputs"]
        assert any(declined)
        assert all(declined) == (ENGINE_DECLINES[case][2] == "all")
        for axis, value in as_rows.items():
            assert as_trains[axis] == value, axis


# -- Slide --------------------------------------------------------------------


class TestSlideSegments:
    @pytest.mark.parametrize("name", KERNEL_AGGS)
    def test_carried_buffer_across_claims(self, name):
        rows = [{"G": i % 2, "A": (7 * i) % 5 + 0.5} for i in range(12)]
        assert_twin(
            lambda: Slide(name, groupby=("G",), value_attr="A", size=3),
            stream_of(rows),
            splits=[2, 5, 9],
        )

    def test_window_larger_than_any_claim(self):
        rows = [{"G": 0, "A": i} for i in range(9)]
        assert_twin(
            lambda: Slide("sum", groupby=("G",), value_attr="A", size=6),
            stream_of(rows),
            splits=[2, 4, 6, 8],
        )

    @pytest.mark.parametrize("name", ["max", "min"])
    def test_negative_zero_ties_match_python_pick(self, name):
        # Python's min/max keep the first of tied values, so -0.0 vs 0.0
        # is observable in repr; the kernels must decline, not guess.
        rows = [{"G": 0, "A": v} for v in [0.0, -0.0, 1.0, -0.0, 0.0, -1.0]]
        assert_twin(
            lambda: Slide(name, groupby=("G",), value_attr="A", size=3),
            stream_of(rows),
            splits=[2, 4],
        )
        assert_twin(
            lambda: Tumble(
                name, groupby=("G",), value_attr="A", result_attr="A",
                mode="count", window_size=2,
            ),
            stream_of(rows),
            splits=[3],
        )

    def test_dtype_promotion_between_claims_falls_back(self):
        # Ints buffered first, floats next: the promoted window dtype
        # would lose the scalar path's per-window Python types, so the
        # second claim must take (and match) the exact path.
        rows = [{"G": 0, "A": i} for i in range(4)] + [
            {"G": 0, "A": 0.5 * i} for i in range(4)
        ]
        assert_twin(
            lambda: Slide("sum", groupby=("G",), value_attr="A", size=3),
            stream_of(rows),
            splits=[4],
        )


# -- WSort --------------------------------------------------------------------


class TestWSortPending:
    def trains(self):
        tuples = stream_of(
            [{"A": (13 * i) % 7, "B": i} for i in range(10)]
        )
        return tuples, [
            ColumnarTrain.from_tuples(tuples[:4]),
            ColumnarTrain.from_tuples(tuples[4:]),
        ]

    def test_parked_trains_report_buffered_and_flush_in_order(self):
        tuples, trains = self.trains()
        op = WSort(("A", "B"))
        for train in trains:
            assert op.process_columnar(train) == []
        assert op.buffered == 10
        twin = WSort(("A", "B"))
        assert scalar_run(twin, tuples) == []  # inf timeout buffers all
        assert emission_key(op.flush()) == emission_key(twin.flush())

    def test_snapshot_absorbs_pending_identically(self):
        tuples, trains = self.trains()
        op = WSort(("A", "B"))
        for train in trains:
            op.process_columnar(train)
        twin = WSort(("A", "B"))
        for tup in tuples:
            twin.process(tup)
        assert repr(op.snapshot()) == repr(twin.snapshot())
        assert emission_key(op.flush()) == emission_key(twin.flush())

    def test_scalar_process_after_parking_absorbs_first(self):
        tuples, trains = self.trains()
        op = WSort(("A", "B"))
        op.process_columnar(trains[0])
        late = StreamTuple({"A": -1, "B": 99}, timestamp=5.0)
        twin = WSort(("A", "B"))
        for tup in tuples[:4]:
            twin.process(tup)
        assert emission_key(op.process(late)) == emission_key(twin.process(late))
        assert repr(op.snapshot()) == repr(twin.snapshot())

    def test_finite_timeout_takes_exact_path(self):
        tuples, _ = self.trains()
        assert_twin(lambda: WSort(("A", "B"), timeout=0.005), tuples, splits=[4])


# -- fused window tails -------------------------------------------------------


class TestFusedWindowTail:
    def network(self):
        net = QueryNetwork()
        net.add_box("f", Filter(col("A") % 7 != 0))
        net.add_box("m", columnar_map({"G": col("G"), "A": col("A") + 1}))
        net.add_box(
            "w",
            Tumble(
                "sum", groupby=("G",), value_attr="A", result_attr="A",
                mode="count", window_size=3,
            ),
        )
        net.connect("in:s", "f")
        net.connect("f", "m")
        net.connect("m", "w")
        net.connect("w", "out:o")
        net.validate()
        return net

    def run(self, fusion, columnar):
        net = self.network()
        engine = AuroraEngine(net, train_size=5, fusion=fusion)
        for chunk in range(3):
            stream = stream_of(
                [{"G": (i // 2) % 3, "A": i + chunk} for i in range(20)],
                start=chunk * 1.0,
            )
            if columnar:
                engine.push_train("s", ColumnarTrain.from_tuples(stream))
            else:
                engine.push_many("s", stream)
            engine.run_until_idle()
        engine.flush()
        return engine, {
            name: [(t.values, t.timestamp) for t in tuples]
            for name, tuples in engine.outputs.items()
        }

    def test_window_terminates_the_fused_run(self):
        engine, _ = self.run(fusion=True, columnar=True)
        assert ["f", "m", "w"] in engine.fused_runs()

    def test_outputs_and_clock_identical_across_configs(self):
        results = {
            (fusion, columnar): self.run(fusion, columnar)
            for fusion in (False, True)
            for columnar in (False, True)
        }
        baseline_engine, baseline_out = results[(False, False)]
        for key, (engine, out) in results.items():
            assert out == baseline_out, key
            assert engine.clock == baseline_engine.clock, key
            assert engine.steps == baseline_engine.steps, key
            assert (
                engine.tuples_processed == baseline_engine.tuples_processed
            ), key
