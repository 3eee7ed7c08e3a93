"""Tests for Tumble, anchored on the paper's Figure 2 worked example."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.operators.tumble import Tumble
from repro.core.tuples import FIGURE_2_STREAM, StreamTuple, make_stream


def run(box, stream, flush=False):
    out = []
    for t in stream:
        out.extend(e for _, e in box.process(t))
    if flush:
        out.extend(e for _, e in box.flush())
    return out


class TestFigure2Example:
    """Section 2.2: Tumble(avg(B), groupby A) over the sample stream.

    "This box would emit two tuples and have another tuple computation
    in progress as a result of processing the seven tuples shown."
    """

    def test_emits_exactly_the_papers_two_tuples(self):
        box = Tumble("avg", groupby=("A",), value_attr="B", result_attr="Result")
        out = run(box, make_stream(FIGURE_2_STREAM))
        assert [t.values for t in out] == [
            {"A": 1, "Result": 2.5},   # emitted upon arrival of tuple #3
            {"A": 2, "Result": 3.0},   # emitted upon arrival of tuple #6
        ]

    def test_third_window_still_in_progress(self):
        box = Tumble("avg", groupby=("A",), value_attr="B", result_attr="Result")
        run(box, make_stream(FIGURE_2_STREAM))
        # A third tuple with A=4 "would not get emitted until a later
        # tuple arrives with A not equal to 4".
        [(_, third)] = box.flush()
        assert third.values == {"A": 4, "Result": 3.5}

    def test_emission_happens_on_group_change_arrival(self):
        box = Tumble("avg", groupby=("A",), value_attr="B", result_attr="Result")
        stream = make_stream(FIGURE_2_STREAM)
        assert run(box, stream[:2]) == []            # both A=1, nothing out
        emitted = [e for _, e in box.process(stream[2])]  # tuple #3, A=2
        assert [t.values for t in emitted] == [{"A": 1, "Result": 2.5}]

    def test_cnt_variant_matches_section_5_example(self):
        # Section 5.1: "without splitting, Tumble would emit
        # (A = 1, result = 2), (A = 2, result = 3)".
        box = Tumble("cnt", groupby=("A",), value_attr="B")
        out = run(box, make_stream(FIGURE_2_STREAM))
        assert [t.values for t in out] == [
            {"A": 1, "result": 2},
            {"A": 2, "result": 3},
        ]


class TestRunMode:
    def test_group_reappearing_starts_new_window(self):
        box = Tumble("cnt", groupby=("A",), value_attr="A")
        out = run(box, make_stream([{"A": 1}, {"A": 2}, {"A": 1}]), flush=True)
        assert [t.values for t in out] == [
            {"A": 1, "result": 1},
            {"A": 2, "result": 1},
            {"A": 1, "result": 1},
        ]

    def test_flush_on_empty_box_emits_nothing(self):
        box = Tumble("cnt", groupby=("A",), value_attr="A")
        assert box.flush() == []

    def test_multi_attribute_groupby(self):
        box = Tumble("sum", groupby=("A", "B"), value_attr="C")
        out = run(
            box,
            make_stream([
                {"A": 1, "B": 1, "C": 5},
                {"A": 1, "B": 1, "C": 6},
                {"A": 1, "B": 2, "C": 7},
            ]),
            flush=True,
        )
        assert [t.values for t in out] == [
            {"A": 1, "B": 1, "result": 11},
            {"A": 1, "B": 2, "result": 7},
        ]

    def test_result_timestamp_is_window_start(self):
        box = Tumble("cnt", groupby=("A",), value_attr="A")
        stream = make_stream([{"A": 1}, {"A": 1}, {"A": 2}])
        out = run(box, stream)
        assert out[0].timestamp == stream[0].timestamp

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=60))
    def test_windows_partition_the_stream(self, keys):
        """Property: run-mode windows are disjoint and cover every tuple."""
        box = Tumble("cnt", groupby=("A",), value_attr="A")
        out = run(box, make_stream([{"A": k} for k in keys]), flush=True)
        assert sum(t["result"] for t in out) == len(keys)
        # Window keys follow the run-length encoding of the key sequence.
        runs = [keys[0]] if keys else []
        for key in keys[1:]:
            if key != runs[-1]:
                runs.append(key)
        assert [t["A"] for t in out] == runs


class TestCountMode:
    def test_window_closes_after_n_tuples(self):
        box = Tumble("sum", groupby=("A",), value_attr="B", mode="count", window_size=2)
        out = run(box, make_stream([
            {"A": 1, "B": 10},
            {"A": 2, "B": 1},
            {"A": 1, "B": 20},   # closes A=1 window
        ]))
        assert [t.values for t in out] == [{"A": 1, "result": 30}]

    def test_concurrent_group_windows(self):
        box = Tumble("cnt", groupby=("A",), value_attr="A", mode="count", window_size=2)
        out = run(box, make_stream([{"A": 1}, {"A": 2}, {"A": 2}, {"A": 1}]))
        assert [t["A"] for t in out] == [2, 1]

    def test_flush_emits_partial_windows(self):
        box = Tumble("cnt", groupby=("A",), value_attr="A", mode="count", window_size=5)
        out = run(box, make_stream([{"A": 1}, {"A": 2}]), flush=True)
        assert sorted(t["A"] for t in out) == [1, 2]

    def test_count_mode_requires_window_size(self):
        with pytest.raises(ValueError):
            Tumble("cnt", groupby=("A",), value_attr="A", mode="count")


class TestValidationAndState:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            Tumble("cnt", groupby=("A",), value_attr="A", mode="sliding")

    def test_empty_groupby_rejected(self):
        with pytest.raises(ValueError):
            Tumble("cnt", groupby=(), value_attr="A")

    def test_snapshot_restore_roundtrip(self):
        box = Tumble("sum", groupby=("A",), value_attr="B")
        box.process(StreamTuple({"A": 1, "B": 5}))
        state = box.snapshot()

        fresh = Tumble("sum", groupby=("A",), value_attr="B")
        fresh.restore(state)
        out = run(fresh, make_stream([{"A": 1, "B": 6}, {"A": 2, "B": 0}]))
        assert [t.values for t in out] == [{"A": 1, "result": 11}]

    def test_windows_emitted_counter(self):
        box = Tumble("cnt", groupby=("A",), value_attr="A")
        run(box, make_stream([{"A": 1}, {"A": 2}, {"A": 3}]), flush=True)
        assert box.windows_emitted == 3
