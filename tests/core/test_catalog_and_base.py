"""Tests for the local catalog and operator base-class contracts."""

import pytest

from repro.core.catalog import CatalogError, LocalCatalog
from repro.core.operators.base import Operator, StatelessOperator
from repro.core.operators.filter import Filter
from repro.core.operators.tumble import Tumble
from repro.core.tuples import Schema, StreamTuple


class TestLocalCatalog:
    def test_schema_roundtrip(self):
        catalog = LocalCatalog()
        catalog.define_schema("quote", Schema("sym", "px"))
        assert catalog.schema("quote").fields == ("sym", "px")

    def test_duplicate_schema_rejected(self):
        catalog = LocalCatalog()
        catalog.define_schema("q", Schema("a"))
        with pytest.raises(CatalogError):
            catalog.define_schema("q", Schema("b"))

    def test_unknown_schema(self):
        with pytest.raises(CatalogError):
            LocalCatalog().schema("ghost")

    def test_stream_requires_schema(self):
        catalog = LocalCatalog()
        with pytest.raises(CatalogError):
            catalog.define_stream("quotes", "missing-schema")

    def test_stream_schema_lookup(self):
        catalog = LocalCatalog()
        catalog.define_schema("quote", Schema("sym", "px"))
        catalog.define_stream("quotes", "quote")
        assert catalog.stream_schema("quotes").fields == ("sym", "px")
        assert catalog.streams() == ["quotes"]

    def test_duplicate_stream_rejected(self):
        catalog = LocalCatalog()
        catalog.define_schema("q", Schema("a"))
        catalog.define_stream("s", "q")
        with pytest.raises(CatalogError):
            catalog.define_stream("s", "q")

    def test_query_registry(self):
        catalog = LocalCatalog()
        catalog.define_query("monitor", object())
        assert catalog.queries() == ["monitor"]
        with pytest.raises(CatalogError):
            catalog.define_query("monitor", object())
        with pytest.raises(CatalogError):
            catalog.query("ghost")

    def test_metadata(self):
        catalog = LocalCatalog()
        catalog.set_metadata("version", 3)
        assert catalog.metadata("version") == 3
        assert catalog.metadata("missing", "default") == "default"


class TestOperatorBase:
    def test_abstract_process(self):
        with pytest.raises(NotImplementedError):
            Operator().process(StreamTuple({"A": 1}))

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            Filter(lambda t: True, cost_per_tuple=-1)

    def test_default_flush_empty(self):
        assert Filter(lambda t: True).flush() == []

    def test_stateless_restore_rejects_state(self):
        with pytest.raises(ValueError):
            Filter(lambda t: True).restore({"bogus": 1})

    def test_stateless_clone_shares_config(self):
        box = Filter(lambda t: t["A"] > 0, name="positive")
        clone = box.clone()
        assert clone is not box
        assert clone.predicate is box.predicate
        assert clone.describe() == box.describe()

    def test_stateful_clone_resets_state(self):
        box = Tumble("cnt", groupby=("A",), value_attr="A")
        box.process(StreamTuple({"A": 1}))
        clone = box.clone()
        assert clone.flush() == []        # fresh state
        assert box.flush() != []          # original untouched

    def test_stateless_base_class_flag(self):
        class Probe(StatelessOperator):
            def process(self, tup, port=0):
                return [(0, tup)]

        probe = Probe()
        assert not probe.stateful
        assert probe.snapshot() is None

    def test_repr_uses_describe(self):
        assert "Filter" in repr(Filter(lambda t: True))
