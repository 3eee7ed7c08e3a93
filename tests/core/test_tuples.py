"""Tests for the stream data model (schemas and tuples)."""

import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.core.columnar import ColumnarTrain
from repro.core.tuples import (
    FIGURE_2_STREAM,
    Schema,
    SchemaError,
    StreamTuple,
    make_stream,
)


class TestSchema:
    def test_fields_preserved_in_order(self):
        schema = Schema("A", "B", "C")
        assert schema.fields == ("A", "B", "C")
        assert list(schema) == ["A", "B", "C"]

    def test_duplicate_fields_rejected(self):
        with pytest.raises(SchemaError):
            Schema("A", "A")

    def test_types_for_unknown_field_rejected(self):
        with pytest.raises(SchemaError):
            Schema("A", types={"B": int})

    def test_validate_accepts_matching_tuple(self):
        schema = Schema("A", "B", types={"A": int})
        schema.validate({"A": 1, "B": "x"})

    def test_validate_rejects_missing_field(self):
        schema = Schema("A", "B")
        with pytest.raises(SchemaError):
            schema.validate({"A": 1})

    def test_validate_rejects_extra_field(self):
        schema = Schema("A")
        with pytest.raises(SchemaError):
            schema.validate({"A": 1, "B": 2})

    def test_validate_rejects_wrong_type(self):
        schema = Schema("A", types={"A": int})
        with pytest.raises(SchemaError):
            schema.validate({"A": "not an int"})

    def test_bool_passes_int_check(self):
        # isinstance(True, int) is Python semantics; document it.
        schema = Schema("A", types={"A": int})
        schema.validate({"A": True})

    def test_project_keeps_types(self):
        schema = Schema("A", "B", types={"A": int, "B": str})
        projected = schema.project("A")
        assert projected.fields == ("A",)
        assert projected.types == {"A": int}

    def test_project_unknown_field_rejected(self):
        with pytest.raises(SchemaError):
            Schema("A").project("Z")

    def test_equality_and_hash(self):
        assert Schema("A", "B") == Schema("A", "B")
        assert Schema("A") != Schema("B")
        assert hash(Schema("A", "B")) == hash(Schema("A", "B"))

    def test_contains(self):
        schema = Schema("A", "B")
        assert "A" in schema
        assert "Z" not in schema


class TestStreamTuple:
    def test_getitem_and_get(self):
        tup = StreamTuple({"A": 1, "B": 2})
        assert tup["A"] == 1
        assert tup.get("Z") is None
        assert tup.get("Z", 9) == 9

    def test_derive_inherits_metadata(self):
        ctx = object()
        tup = StreamTuple({"A": 1}, timestamp=5.0, trace=ctx)
        derived = tup.derive({"X": 99})
        assert derived["X"] == 99
        assert derived.timestamp == 5.0
        assert derived.trace is ctx

    def test_with_metadata_replaces_selectively(self):
        ctx = object()
        tup = StreamTuple({"A": 1}, timestamp=1.0, trace=ctx)
        updated = tup.with_metadata(timestamp=7.0)
        assert updated.timestamp == 7.0
        assert updated.trace is ctx
        assert updated.values == tup.values
        assert tup.with_metadata().timestamp == 1.0

    def test_a_tuple_is_values_a_timestamp_and_a_trace(self):
        assert StreamTuple.__slots__ == ("values", "timestamp", "trace")

    def test_the_lineage_stays_out_of_the_data_planes(self):
        """Section 6.2's sequence numbers live on ``repro.ha.chain.HATuple``:
        no tuple, train, frame, spill record or worker names them — only
        the two placeholder parameters ``from_parts`` ignores."""
        assert not {"seqs", "origins"} & set(ColumnarTrain.__slots__)
        package = Path(repro.__file__).parent
        planes = [
            path
            for name in ("core", "parallel", "obs", "workloads", "distributed")
            for path in sorted((package / name).rglob("*.py"))
        ] + [package / "network" / "framing.py", package / "network" / "transport.py"]
        word = re.compile(r"\b(?:seqs?|origins?)\b")
        hits = {
            path.relative_to(package).as_posix(): len(word.findall(path.read_text()))
            for path in planes
            if word.search(path.read_text())
        }
        assert len(planes) > 40 and list(hits) == ["core/tuples.py"], hits
        source = (package / "core" / "tuples.py").read_text()
        placeholders = source[source.index("def from_parts("):source.index("return tup")]
        assert hits["core/tuples.py"] == len(word.findall(placeholders))

    def test_from_parts_accepts_the_benchmark_call_shape(self):
        # benchmarks/e2e/workloads.py (lines 245 and 396) passes five
        # positionals until ROADMAP item 1 rewrites it; slots 3 and 4 are
        # ignored, the fifth is the trace.
        ctx = object()
        tup = StreamTuple.from_parts({"k": 1}, 0.5, None, None, ctx)
        assert (tup.values, tup.timestamp) == ({"k": 1}, 0.5)
        assert tup.trace is ctx

    def test_key_projection(self):
        tup = StreamTuple({"A": 1, "B": 2, "C": 3})
        assert tup.key(("C", "A")) == (3, 1)

    def test_equality_on_values_only(self):
        assert StreamTuple({"A": 1}, timestamp=0.0) == StreamTuple({"A": 1}, timestamp=9.9)
        assert StreamTuple({"A": 1}) != StreamTuple({"A": 2})

    def test_values_are_copied(self):
        source = {"A": 1}
        tup = StreamTuple(source)
        source["A"] = 99
        assert tup["A"] == 1

    @given(st.dictionaries(st.text(min_size=1, max_size=5), st.integers(), min_size=1))
    def test_hash_consistent_with_equality(self, values):
        a = StreamTuple(values)
        b = StreamTuple(dict(values))
        assert a == b
        assert hash(a) == hash(b)


class TestMakeStream:
    def test_spacing_and_start(self):
        stream = make_stream([{"A": 1}, {"A": 2}], start_time=10.0, spacing=0.5)
        assert [t.timestamp for t in stream] == [10.0, 10.5]

    def test_figure_2_stream_shape(self):
        stream = make_stream(FIGURE_2_STREAM)
        assert len(stream) == 7
        assert stream[0].values == {"A": 1, "B": 2}
        assert stream[6].values == {"A": 4, "B": 2}
