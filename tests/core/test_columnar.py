"""Unit tests for columnar tuple trains (repro.core.columnar).

The property suite (test_fusion_property.py) establishes the global
bit-exactness contract; this file pins the mechanisms behind it:
encode/decode fidelity, dtype fallback, exact vectorized accounting
folds, queue-entry clock ownership, lazy output buffers, every
ingestion/claim barrier (and the two observers that are not barriers:
tracer and shedder), and the compiled expression language, operator by
operator (a row and a train must read every expression the same way).
"""

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import (
    ColumnarTrain,
    OutputBuffer,
    accumulate_chain,
    col,
    lit,
    running_max,
    sequential_sum,
)
from repro.core.engine import AuroraEngine
from repro.core.operators.case_filter import CaseFilter
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


def rows(n, start=0):
    return [{"A": start + i, "B": (start + i) % 7} for i in range(n)]


def tuples_of(stream):
    return [(t.values, t.timestamp) for t in stream]


# -- encode / decode ----------------------------------------------------------


def test_roundtrip_preserves_values_and_metadata():
    stream = [
        StreamTuple({"A": i, "B": i * 0.5}, timestamp=0.1 * i)
        for i in range(9)
    ]
    train = ColumnarTrain.from_tuples(stream)
    assert train is not None
    assert len(train) == 9
    assert train.fields == ("A", "B")
    assert train.columns["A"].dtype.kind == "i"
    assert tuples_of(train.to_tuples()) == tuples_of(stream)


def test_ragged_trains_are_not_encodable():
    stream = make_stream([{"A": 1}, {"A": 2, "B": 3}])
    assert ColumnarTrain.from_tuples(stream) is None
    assert ColumnarTrain.from_tuples([]) is None


def test_object_dtype_fallback_keeps_python_semantics():
    # Strings, Nones, mixed types and ints beyond int64 all take the
    # object-column path, where NumPy applies the *Python* operators
    # elementwise.
    stream = make_stream([
        {"A": 1, "tag": "x"},
        {"A": 2 ** 70, "tag": None},
        {"A": -3, "tag": "y"},
    ])
    train = ColumnarTrain.from_tuples(stream)
    assert train.columns["A"].dtype == object
    assert train.columns["tag"].dtype == object
    assert train.to_tuples()[1].values["A"] == 2 ** 70
    mask = (col("A") % 2 == 0).mask(train)
    assert list(mask) == [False, True, False]
    out = columnar_map({"A": col("A") + 1, "tag": col("tag")}).func.evaluate(train)
    assert [t.values["A"] for t in out.to_tuples()] == [2, 2 ** 70 + 1, -2]


def test_split_and_concat_preserve_rows():
    train = ColumnarTrain.from_tuples(make_stream(rows(10), spacing=0.5))
    head, tail = train.split(3)
    assert (len(head), len(tail)) == (3, 7)
    rejoined = ColumnarTrain.concat([head, tail])
    assert tuples_of(rejoined.to_tuples()) == tuples_of(train.to_tuples())


# -- exact vectorized accounting ---------------------------------------------


def awkward_floats():
    # Values chosen to expose any non-sequential summation: spread
    # magnitudes mean (a + b) + c != a + (b + c) for most orderings.
    rng = np.random.default_rng(42)
    return rng.uniform(0.0001, 0.003, size=257) * 10.0 ** rng.integers(
        -6, 6, size=257
    )


def test_accumulate_chain_matches_python_loop_bitwise():
    incs = awkward_floats()
    x = 0.7300000000000003
    expected = []
    for inc in incs:
        x += inc
        expected.append(x)
    chain = accumulate_chain(0.7300000000000003, incs)
    assert chain.tolist() == expected  # == on floats is bit comparison


def test_sequential_sum_matches_python_loop_bitwise():
    values = awkward_floats()
    total = 0.0
    for v in values:
        total += v
    assert sequential_sum(values) == total
    assert sequential_sum(np.array([])) == 0.0


def test_running_max_matches_python_loop():
    values = awkward_floats()
    x = 0.001
    expected = []
    for v in values:
        x = max(x, v)
        expected.append(x)
    assert running_max(0.001, values).tolist() == expected


# -- queue-entry clock ownership ----------------------------------------------


def test_requeue_stamps_a_twin_not_the_shared_object():
    # One train object queued on two arcs (fan-out), then restamped:
    # the first arc's entry must keep its original clocks.
    net = QueryNetwork()
    net.add_box("a", Filter(col("A") % 1 == 0))
    net.add_box("b", Filter(col("A") % 1 == 0))
    net.connect("in:s", "a")
    net.connect("in:s2", "b")
    net.validate()
    arc_a = next(iter(net.boxes["a"].input_arcs.values()))
    arc_b = next(iter(net.boxes["b"].input_arcs.values()))
    train = ColumnarTrain.from_tuples(make_stream(rows(4)))
    arc_a.append_train(train, np.full(4, 1.0))
    arc_b.append_train(train, np.full(4, 9.0))
    entry_a = arc_a.queue[0]
    entry_b = arc_b.queue[0]
    assert entry_a.enqueue_clocks.tolist() == [1.0] * 4
    assert entry_b.enqueue_clocks.tolist() == [9.0] * 4
    assert entry_b.columns["A"] is entry_a.columns["A"]  # data still shared


# -- lazy output buffers ------------------------------------------------------


def test_output_buffer_list_protocol():
    buffer = OutputBuffer()
    train = ColumnarTrain.from_tuples(make_stream(rows(5), spacing=0.1))
    buffer.extend_train(train)
    assert len(buffer) == 5  # len() must not materialize
    assert buffer._pending
    assert buffer[2].values == {"A": 2, "B": 2}
    assert not buffer._pending  # reads materialize
    assert [t.values["A"] for t in buffer] == [0, 1, 2, 3, 4]
    assert buffer == train.to_tuples()


# -- ingestion and claim barriers ---------------------------------------------


def pipeline_net():
    net = QueryNetwork()
    net.add_box("f", Filter(col("A") % 2 == 0, cost_per_tuple=0.001))
    net.add_box("m", columnar_map({"A": col("A") + 10}, cost_per_tuple=0.001))
    net.connect("in:s", "f")
    net.connect("f", "m")
    net.connect("m", "out:o")
    net.validate()
    return net


def run_network(make_net, push, *, engine_kwargs=None, n=24, train=8):
    """Push `n` tuples in trains of `train` and return comparable state."""
    net = make_net()
    registry = MetricsRegistry()
    engine = AuroraEngine(
        net, train_size=train, scheduling_overhead=0.001, metrics=registry,
        **(engine_kwargs() if engine_kwargs else {}),
    )
    stream = make_stream(rows(n), spacing=0.01)
    for i in range(0, n, train):
        chunk = stream[i:i + train]
        if push == "train":
            engine.push_train("s", ColumnarTrain.from_tuples(chunk))
        else:
            engine.push_many("s", chunk)
    engine.run_until_idle()
    engine.flush()
    return {
        "outputs": {
            name: tuples_of(tuples) for name, tuples in engine.outputs.items()
        },
        "clock": engine.clock,
        "steps": engine.steps,
        "snapshot": dumps(snapshot(registry)),
    }


def assert_push_equivalent(make_net, **kwargs):
    assert run_network(make_net, "train", **kwargs) == run_network(
        make_net, "many", **kwargs
    )


def test_push_train_equivalent_to_push_many():
    assert_push_equivalent(pipeline_net)


def test_stateful_operator_materializes_at_claim():
    def net():
        network = QueryNetwork()
        network.add_box("w", Tumble("sum", groupby=("B",), value_attr="A",
                                    result_attr="A", mode="count",
                                    window_size=4))
        network.connect("in:s", "w")
        network.connect("w", "out:o")
        network.validate()
        return network

    assert_push_equivalent(net)


def test_fan_in_materializes_at_claim():
    def net():
        network = QueryNetwork()
        network.add_box("f", Filter(col("A") % 2 == 0))
        network.add_box("u", Union(2))
        network.connect("in:s", "f")
        network.connect("f", (("u"), 0))
        network.connect("in:s", ("u", 1))
        network.validate()
        return network

    # Input fan-out (s feeds two arcs) forces push_train's own fallback,
    # and the Union's two arcs forbid columnar claims: both barriers at
    # once, outputs still identical.
    assert_push_equivalent(net)


def test_connection_point_is_an_ingestion_barrier():
    def net():
        network = QueryNetwork()
        network.add_box("f", Filter(col("A") % 2 == 0))
        network.connect("in:s", "f", connection_point=True)
        network.connect("f", "out:o")
        network.validate()
        return network

    result = run_network(net, "train")
    assert result == run_network(net, "many")
    # And the connection point actually recorded history per tuple.
    fresh = net()
    engine = AuroraEngine(fresh)
    engine.push_train("s", ColumnarTrain.from_tuples(make_stream(rows(6))))
    arc = next(iter(fresh.boxes["f"].input_arcs.values()))
    assert len(arc.connection_point.history) == 6


def test_shedder_is_not_an_ingestion_barrier():
    def kwargs():
        return {"shedder": LoadShedder(target_load=0.5, seed=3)}

    assert_push_equivalent(pipeline_net, engine_kwargs=kwargs)
    net = pipeline_net()
    engine = AuroraEngine(net, **kwargs())
    assert engine.columnar is True
    train = ColumnarTrain.from_tuples(make_stream(rows(8), spacing=0.01))
    assert engine.push_train("s", train) == 8
    arc = next(iter(net.boxes["f"].input_arcs.values()))
    assert arc.has_segments and len(arc.queue) == 1


def test_tracing_keeps_columnar_mode(monkeypatch):
    def net():
        network = QueryNetwork()
        network.add_box("f", Filter(col("A") % 2 == 0, cost_per_tuple=0.001))
        network.add_box("w", Tumble("sum", groupby=("B",), value_attr="A",
                                    result_attr="A"))
        network.connect("in:s", "f")
        network.connect("f", "w")
        network.connect("w", "out:o")
        network.validate()
        return network

    def traced_run(push):
        # run_network's snapshot has no span trees; compare those too.
        tracer = Tracer(sample_rate=1.0)
        result = run_network(net, push, engine_kwargs=lambda: {"tracer": tracer})
        return result, dumps(tracer.sink.to_dict())

    assert_push_equivalent(pipeline_net,
                           engine_kwargs=lambda: {"tracer": Tracer(sample_rate=1.0)})
    monkeypatch.setattr(
        Tumble, "process_batch",
        lambda *args, **kwargs: pytest.fail("Tumble fell to the row kernel"),
    )
    train_pushed = traced_run("train")
    monkeypatch.undo()
    assert train_pushed == traced_run("many")
    assert train_pushed[0]["outputs"]["o"]

    network = net()
    tracer = Tracer(sample_rate=1.0)
    engine = AuroraEngine(network, tracer=tracer)
    assert engine.columnar is True
    train = ColumnarTrain.from_tuples(make_stream(rows(8), spacing=0.01))
    assert engine.push_train("s", train) == 8
    arc = next(iter(network.boxes["f"].input_arcs.values()))
    assert arc.has_segments and len(arc.queue) == 1
    assert train.traces is None and train.enqueue_clocks is None  # caller's untouched
    assert len(arc.queue[0].traces) == 8 and tracer.sink.count("source:s") == 8


def test_mixed_queue_materializes_segments():
    net = pipeline_net()
    engine = AuroraEngine(net, train_size=64, scheduling_overhead=0.001)
    stream = make_stream(rows(12), spacing=0.01)
    engine.push_many("s", stream[:4])
    engine.push_train("s", ColumnarTrain.from_tuples(stream[4:8]))
    engine.push_many("s", stream[8:])
    arc = next(iter(net.boxes["f"].input_arcs.values()))
    assert arc.has_segments and len(arc.queue) < 12  # genuinely mixed
    assert arc.queued_tuples() == 12
    engine.run_until_idle()
    engine.flush()
    reference = run_network(pipeline_net, "many", n=12, train=64)
    assert {
        name: tuples_of(tuples) for name, tuples in engine.outputs.items()
    } == reference["outputs"]
    assert engine.clock == reference["clock"]


def test_opaque_lambda_falls_back_transparently():
    def net():
        network = QueryNetwork()
        network.add_box("f", Filter(lambda t: t["A"] % 2 == 0))
        network.add_box("m", Map(lambda v: {"A": v["A"] + 10, "B": v["B"]}))
        network.connect("in:s", "f")
        network.connect("f", "m")
        network.connect("m", "out:o")
        network.validate()
        return network

    assert not net().boxes["f"].operator.supports_columnar
    assert_push_equivalent(net)


def test_case_filter_columnar_counters_match_list_path():
    def run(push):
        network = QueryNetwork()
        case = CaseFilter([col("A") % 3 == 0, col("A") % 3 == 1])
        network.add_box("c", case)
        network.connect("in:s", "c")
        network.connect(("c", 0), "out:zero")
        network.connect(("c", 1), "out:one")
        network.validate()
        engine = AuroraEngine(network, train_size=8)
        stream = make_stream(rows(20), spacing=0.01)
        if push == "train":
            engine.push_train("s", ColumnarTrain.from_tuples(stream))
        else:
            engine.push_many("s", stream)
        engine.run_until_idle()
        return case.routed, case.dropped, {
            name: tuples_of(tuples) for name, tuples in engine.outputs.items()
        }

    assert run("train") == run("many")
    routed, dropped, _ = run("train")
    assert sum(routed) + dropped == 20 and dropped > 0


# -- compiled expressions: a row and a train read them the same way -----------

BINARY = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "//": operator.floordiv, "%": operator.mod,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "==": operator.eq, "!=": operator.ne, "&": operator.and_, "|": operator.or_,
}
UNARY = {"~": operator.invert, "neg": operator.neg}

# Inside +-2**31 no single operator leaves int64 (wrapping there is the
# documented divergence of compiled arithmetic).
INTS = st.integers(-(2**31), 2**31)
FLOATS = st.floats(allow_nan=True, allow_infinity=True)
KINDS = {
    "int": INTS,
    "float": FLOATS,
    "bool": st.booleans(),
    "mixed": st.one_of(INTS, FLOATS, st.booleans()),  # an object column
}
SHAPES = {
    "column-column": lambda op, k: op(col("A"), col("B")),
    "column-constant": lambda op, k: op(col("A"), k),
    "constant-column": lambda op, k: op(k, col("B")),  # the reflected forms
    "literal-column": lambda op, k: op(lit(k), col("B")),
}


def outcome(evaluate):
    try:
        return evaluate()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


def same_value(got, want):
    """Equal and of the same Python type; -0.0 is not 0.0, NaN is NaN."""
    if type(got) is not type(want):
        return False
    if isinstance(want, float):
        if math.isnan(want):
            return math.isnan(got)
        return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
    return got == want


def assert_rows_equal_train(expr, stream):
    train = ColumnarTrain.from_tuples(stream)
    want = outcome(lambda: [expr(t.values) for t in stream])
    with np.errstate(all="ignore"):  # inf - inf warns in NumPy only
        got = outcome(lambda: expr.evaluate(train).tolist())
    if isinstance(want, type) or isinstance(got, type):
        assert got is want, (expr, got, want)
        return
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert same_value(g, w), (expr, got, want)


@st.composite
def operand_columns(draw):
    """Two columns of one kind each (1-6 rows) and a constant of a third."""
    left, right, constant = (draw(st.sampled_from(sorted(KINDS))) for _ in range(3))
    n = draw(st.integers(1, 6))
    stream = make_stream([
        {"A": draw(KINDS[left]), "B": draw(KINDS[right])} for _ in range(n)
    ])
    return stream, draw(KINDS[constant])


class TestExpressionsReadRowsAndTrainsAlike:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("symbol", BINARY)
    @settings(deadline=None)
    @given(operand_columns())
    def test_binary_operator(self, symbol, shape, operands):
        stream, constant = operands
        assert_rows_equal_train(SHAPES[shape](BINARY[symbol], constant), stream)

    @pytest.mark.parametrize("symbol", UNARY)
    @settings(deadline=None)
    @given(operand_columns())
    def test_unary_operator(self, symbol, operands):
        stream, _constant = operands
        assert_rows_equal_train(UNARY[symbol](col("A")), stream)
        assert_rows_equal_train(UNARY[symbol](col("A") < col("B")), stream)

    def test_and_or_are_logical_on_both_paths(self):
        # Bitwise on the row path, logical on the columnar one, until
        # this PR: (2, 1) passed as a train and was dropped as a row.
        stream = make_stream([{"A": 2, "B": 1}, {"A": 3, "B": 1}, {"A": 4, "B": 0}])
        both, either = col("A") & col("B"), col("A") | col("B")
        assert [both(t.values) for t in stream] == [True, True, False]
        assert [either(t.values) for t in stream] == [True, True, True]
        assert_rows_equal_train(both, stream)
        assert_rows_equal_train(either, stream)

    @pytest.mark.parametrize("symbol", ["/", "//", "%"])
    def test_a_zero_divisor_raises_on_both_paths(self, symbol):
        stream = make_stream([{"A": 6, "B": 3}, {"A": 1.5, "B": 0}])
        train = ColumnarTrain.from_tuples(stream)
        for expr in (BINARY[symbol](col("A"), col("B")), BINARY[symbol](col("A"), 0)):
            with pytest.raises(ZeroDivisionError):
                [expr(t.values) for t in stream]
            with pytest.raises(ZeroDivisionError):
                expr.evaluate(train)

    @pytest.mark.parametrize("symbol", [*BINARY, *UNARY])
    def test_filter_and_map_in_the_engine(self, symbol):
        """A Filter and a columnar_map built from the operator: the same
        tuples, clock, steps and per-box counters as rows and as a train."""
        if symbol in BINARY:  # 0..3 against 1..3: nothing divides by zero
            expr = BINARY[symbol](col("A") % 4, col("B") % 3 + 1)
        else:
            expr = UNARY[symbol](col("A") % 4)

        def net():
            network = QueryNetwork()
            network.add_box("m", columnar_map({"A": col("A"), "B": col("B"), "R": expr}))
            network.add_box("f", Filter(expr))
            network.connect("in:s", "m")
            network.connect("m", "f")
            network.connect("f", "out:o")
            network.validate()
            return network

        assert_push_equivalent(net)
