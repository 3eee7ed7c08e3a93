"""Tests for the file-backed FIFO spill store."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spill import SpillError, SpillFile
from repro.core.tuples import StreamTuple
from repro.obs.trace import TraceContext


class TestFifoSemantics:
    def test_append_pop_roundtrip(self):
        with SpillFile() as spill:
            spill.append(StreamTuple({"A": 1}, timestamp=2.5))
            out = spill.pop()
            assert out.values == {"A": 1}
            assert out.timestamp == 2.5
            assert out.trace is None

    def test_a_sampled_tuple_keeps_its_trace_context(self):
        # The record used to be (values, timestamp, seq, origin): a
        # spilled tuple came back unsampled and its span chain ended.
        with SpillFile() as spill:
            spill.append(StreamTuple({"A": 1}, timestamp=2.5, trace=TraceContext(11, 4)))
            out = spill.pop()
            assert (out.values, out.timestamp) == ({"A": 1}, 2.5)
            assert (out.trace.trace_id, out.trace.span_id) == (11, 4)

    def test_fifo_order(self):
        with SpillFile() as spill:
            for i in range(20):
                spill.append(StreamTuple({"i": i}))
            assert [spill.pop()["i"] for _ in range(20)] == list(range(20))

    def test_len_tracks_contents(self):
        with SpillFile() as spill:
            assert len(spill) == 0
            spill.append(StreamTuple({"A": 1}))
            spill.append(StreamTuple({"A": 2}))
            assert len(spill) == 2
            spill.pop()
            assert len(spill) == 1

    def test_pop_empty_raises(self):
        with SpillFile() as spill:
            with pytest.raises(SpillError):
                spill.pop()

    @given(st.lists(st.integers(), max_size=60))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, values):
        with SpillFile() as spill:
            for v in values:
                spill.append(StreamTuple({"v": v}))
            assert [spill.pop()["v"] for _ in values] == values


class TestDurability:
    def test_reopen_preserves_unread_tuples(self, tmp_path):
        path = str(tmp_path / "queue.q")
        spill = SpillFile(path)
        for i in range(5):
            spill.append(StreamTuple({"i": i}))
        spill.close(delete=False)

        reopened = SpillFile(path)
        assert len(reopened) == 5
        assert reopened.pop()["i"] == 0
        reopened.close()

    def test_torn_trailing_record_discarded(self, tmp_path):
        path = str(tmp_path / "queue.q")
        spill = SpillFile(path)
        spill.append(StreamTuple({"i": 0}))
        spill.append(StreamTuple({"i": 1}))
        spill.close(delete=False)
        # Simulate a crash mid-append: chop bytes off the tail.
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) - 3)
        recovered = SpillFile(path)
        assert len(recovered) == 1
        assert recovered.pop()["i"] == 0
        recovered.close()

    def test_owned_tempfile_deleted_on_close(self):
        spill = SpillFile()
        path = spill.path
        assert os.path.exists(path)
        spill.close()
        assert not os.path.exists(path)


class TestCompaction:
    def test_compaction_bounds_file_size(self):
        spill = SpillFile(compact_threshold=512)
        try:
            for cycle in range(30):
                for i in range(10):
                    spill.append(StreamTuple({"cycle": cycle, "i": i}))
                for _ in range(10):
                    spill.pop()
            # Steady-state churn: the file does not grow without bound.
            assert spill.file_bytes < 4096
            assert len(spill) == 0
        finally:
            spill.close()

    def test_pop_correct_across_compaction(self):
        spill = SpillFile(compact_threshold=128)
        try:
            for i in range(50):
                spill.append(StreamTuple({"i": i}))
            assert [spill.pop()["i"] for _ in range(50)] == list(range(50))
        finally:
            spill.close()
