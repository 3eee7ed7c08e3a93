"""Tests for the stateless operators: Filter, Map, Union."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.operators.filter import Filter, attribute_filter
from repro.core.operators.map import Map, extend, project
from repro.core.operators.union import Union
from repro.core.tuples import StreamTuple


def tup(**values):
    return StreamTuple(values)


class TestFilter:
    def test_passes_satisfying_tuples(self):
        box = Filter(lambda t: t["A"] > 1)
        assert box.process(tup(A=2)) == [(0, tup(A=2))]

    def test_drops_failing_tuples_without_false_port(self):
        box = Filter(lambda t: t["A"] > 1)
        assert box.process(tup(A=0)) == []
        assert box.n_outputs == 1

    def test_false_port_routes_failing_tuples(self):
        # The paper: "Filter can also produce a second output stream
        # consisting of those tuples which did not satisfy p".
        box = Filter(lambda t: t["A"] > 1, with_false_port=True)
        assert box.n_outputs == 2
        assert box.process(tup(A=0)) == [(1, tup(A=0))]
        assert box.process(tup(A=5)) == [(0, tup(A=5))]

    def test_rejects_bad_port(self):
        with pytest.raises(ValueError):
            Filter(lambda t: True).process(tup(A=1), port=1)

    def test_is_stateless(self):
        box = Filter(lambda t: True)
        assert not box.stateful
        assert box.snapshot() is None

    def test_attribute_filter_comparisons(self):
        assert attribute_filter("B", "<", 3).process(tup(B=2)) == [(0, tup(B=2))]
        assert attribute_filter("B", "<", 3).process(tup(B=3)) == []
        assert attribute_filter("B", ">=", 3).process(tup(B=3)) == [(0, tup(B=3))]
        assert attribute_filter("B", "==", 3).process(tup(B=3)) == [(0, tup(B=3))]
        assert attribute_filter("B", "!=", 3).process(tup(B=3)) == []

    def test_attribute_filter_unknown_op(self):
        with pytest.raises(ValueError):
            attribute_filter("B", "~", 3)

    def test_describe_names_predicate(self):
        assert "B < 3" in attribute_filter("B", "<", 3).describe()

    @given(st.lists(st.integers(-10, 10), max_size=50))
    def test_partition_is_lossless_with_false_port(self, values):
        box = Filter(lambda t: t["A"] % 2 == 0, with_false_port=True)
        emitted = [box.process(tup(A=v)) for v in values]
        total = [e for batch in emitted for e in batch]
        assert len(total) == len(values)


class TestMap:
    def test_transforms_values(self):
        box = Map(lambda v: {"double": v["A"] * 2})
        assert box.process(tup(A=3)) == [(0, tup(double=6))]

    def test_metadata_inherited(self):
        box = Map(lambda v: {"X": 1})
        ctx = object()
        source = StreamTuple({"A": 1}, timestamp=4.2, trace=ctx)
        for [(_, out)] in (box.process(source), box.process_batch([source])):
            assert out.timestamp == 4.2
            assert out.trace is ctx

    def test_project_helper(self):
        box = project("A")
        assert box.process(tup(A=1, B=2)) == [(0, tup(A=1))]

    def test_extend_helper(self):
        box = extend("total", lambda v: v["A"] + v["B"])
        [(_, out)] = box.process(tup(A=1, B=2))
        assert out.values == {"A": 1, "B": 2, "total": 3}

    def test_rejects_bad_port(self):
        with pytest.raises(ValueError):
            Map(lambda v: v).process(tup(A=1), port=2)


class TestUnion:
    def test_passes_from_all_ports(self):
        box = Union(3)
        for port in range(3):
            assert box.process(tup(A=port), port=port) == [(0, tup(A=port))]

    def test_rejects_out_of_range_port(self):
        with pytest.raises(ValueError):
            Union(2).process(tup(A=1), port=2)

    def test_rejects_zero_inputs(self):
        with pytest.raises(ValueError):
            Union(0)

    def test_arity_reflects_inputs(self):
        assert Union(4).arity == 4
