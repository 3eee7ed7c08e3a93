"""Tracer sampling and SpanSink tree reconstruction."""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.trace import SpanSink, TraceColumn, TraceContext, Tracer


class TestSampling:
    def test_rate_zero_never_samples(self):
        tracer = Tracer(sample_rate=0.0)
        assert not tracer.active
        assert all(tracer.sample() is None for _ in range(100))
        assert tracer.traces_started == 0

    def test_rate_one_samples_everything(self):
        tracer = Tracer(sample_rate=1.0)
        ids = [tracer.sample() for _ in range(10)]
        assert ids == list(range(10))

    def test_systematic_sampling_is_evenly_spaced(self):
        tracer = Tracer(sample_rate=0.25)
        admitted = [i for i in range(100) if tracer.sample() is not None]
        assert len(admitted) == 25
        gaps = {b - a for a, b in zip(admitted, admitted[1:])}
        assert gaps == {4}

    def test_sampling_is_deterministic(self):
        a = [Tracer(sample_rate=0.3).sample() for _ in range(1)]
        b = [Tracer(sample_rate=0.3).sample() for _ in range(1)]
        assert a == b

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)


class TestSpans:
    def test_start_trace_records_root(self):
        tracer = Tracer(sample_rate=1.0)
        ctx = tracer.start_trace("source:s", node="n1", at=2.5)
        assert isinstance(ctx, TraceContext)
        [span] = tracer.sink.spans
        assert span.parent_id is None
        assert span.name == "source:s"
        assert span.start == span.end == 2.5

    def test_span_chain_builds_lineage(self):
        tracer = Tracer(sample_rate=1.0)
        root = tracer.start_trace("source:s")
        child = tracer.span(root, "box:f", start=1.0, end=2.0)
        tracer.event(child, "deliver:out", at=2.0)
        assert child.trace_id == root.trace_id
        tree = tracer.sink.tree(root.trace_id)
        assert len(tree) == 1
        assert tree[0]["name"] == "source:s"
        assert tree[0]["children"][0]["name"] == "box:f"
        assert tree[0]["children"][0]["children"][0]["name"] == "deliver:out"

    def test_unsampled_context_returns_none(self):
        tracer = Tracer(sample_rate=0.0)
        assert tracer.start_trace("source:s") is None


class TestSink:
    def test_tree_ids_renumbered_depth_first(self):
        """Raw span ids depend on record order; trees must not."""

        def record(order):
            sink = SpanSink()
            tracer = Tracer(sink, sample_rate=1.0)
            root = tracer.start_trace("root")
            if order == "ab":
                a = tracer.span(root, "a", start=1.0)
                b = tracer.span(root, "b", start=2.0)
            else:
                b = tracer.span(root, "b", start=2.0)
                a = tracer.span(root, "a", start=1.0)
            tracer.event(a, "a.leaf", at=1.5)
            tracer.event(b, "b.leaf", at=2.5)
            return sink.tree(root.trace_id)

        tree_ab = record("ab")
        tree_ba = record("ba")
        assert tree_ab == tree_ba
        # Pre-order numbering: root=0, a=1, a.leaf=2, b=3, b.leaf=4.
        root = tree_ab[0]
        assert root["span"] == 0
        a, b = root["children"]
        assert (a["name"], a["span"]) == ("a", 1)
        assert a["children"][0]["span"] == 2
        assert (b["name"], b["span"]) == ("b", 3)

    def test_count_and_queries(self):
        tracer = Tracer(sample_rate=1.0)
        for i in range(3):
            root = tracer.start_trace("source:s", node=f"n{i}")
            tracer.event(root, "deliver:out", node=f"n{i}")
        sink = tracer.sink
        assert len(sink) == 6
        assert sink.count("deliver:") == 3
        assert sink.trace_ids() == [0, 1, 2]
        assert sink.nodes_visited(1) == ["n1"]

    def test_tree_text_renders_hierarchy(self):
        tracer = Tracer(sample_rate=1.0)
        root = tracer.start_trace("source:s", at=0.0)
        tracer.span(root, "box:f", node="n1", start=1.0, end=2.0)
        text = tracer.sink.tree_text(root.trace_id)
        lines = text.splitlines()
        assert lines[0].startswith("source:s")
        assert lines[1].startswith("  box:f [n1]")

    def test_to_dict_is_jsonable(self):
        import json

        tracer = Tracer(sample_rate=1.0)
        root = tracer.start_trace("source:s")
        tracer.event(root, "deliver:out")
        dumped = json.dumps(tracer.sink.to_dict(), sort_keys=True)
        assert "source:s" in dumped


class TestTrainSampling:
    @pytest.mark.parametrize("rate", [0.0, 0.05, 0.1, 0.3, 0.9, 1.0])
    def test_sample_train_is_n_samples(self, rate):
        """Same accumulator, bit for bit: per-tuple and per-train offers
        interleave freely and end in the same state."""
        rng = random.Random(7)
        one, train = Tracer(sample_rate=rate), Tracer(sample_rate=rate)
        for _ in range(40):
            n = rng.randint(0, 70)
            expected = [(i, tid) for i in range(n)
                        if (tid := one.sample()) is not None]
            if rng.random() < 0.5:
                rows, trace_ids = train.sample_train(n)
                got = list(zip(rows.tolist(), trace_ids.tolist()))
            else:
                got = [(i, tid) for i in range(n)
                       if (tid := train.sample()) is not None]
            assert got == expected
            assert train._accumulator == one._accumulator
        assert (train.offers, train.traces_started) == (one.offers, one.traces_started)

    @settings(max_examples=50, deadline=None)
    @given(
        rate=st.one_of(
            st.floats(min_value=0.0, max_value=1.0),
            st.sampled_from([0.05, 0.1, 1 / 3, 1.0]),
        ),
        offers=st.lists(
            st.tuples(st.sampled_from(["train", "tuples"]), st.integers(0, 5000)),
            max_size=6,
        ),
    )
    def test_sample_train_is_n_samples_at_any_rate_and_length(self, rate, offers):
        """Trains up to 5000 rows at arbitrary rates (and the grid rates a
        closed form gets wrong), interleaved with per-tuple offers: the
        admitted positions, trace ids, counters and the trailing
        accumulator, bit for bit, are those of ``n`` calls of sample()."""
        one, train = Tracer(sample_rate=rate), Tracer(sample_rate=rate)
        for kind, n in offers:
            expected = [(i, tid) for i in range(n) if (tid := one.sample()) is not None]
            if kind == "train":
                rows, trace_ids = train.sample_train(n)
                got = list(zip(rows.tolist(), trace_ids.tolist()))
            else:
                got = [(i, tid) for i in range(n) if (tid := train.sample()) is not None]
            assert got == expected
            assert train._accumulator.hex() == one._accumulator.hex()
        assert (train.offers, train.traces_started) == (one.offers, one.traces_started)

    def test_start_train_records_roots_at_timestamps(self):
        tracer = Tracer(sample_rate=0.5)
        timestamps = np.arange(6, dtype=np.float64) * 0.25
        column = tracer.start_train("source:s", timestamps)
        assert column.rows.tolist() == [1, 3, 5]
        assert [(s.name, s.parent_id, s.start, s.end) for s in tracer.sink.spans] == [
            ("source:s", None, t, t) for t in (0.25, 0.75, 1.25)
        ]
        assert Tracer(sample_rate=0.01).start_train("source:s", timestamps) is None


class TestTraceColumn:
    def column(self):
        return TraceColumn(np.array([1, 4, 6]), np.array([10, 11, 12]),
                           np.array([20, 21, 22]))

    def ids(self, column):
        if column is None:
            return None
        return {row: (ctx.trace_id, ctx.span_id)
                for row, ctx in zip(column.rows.tolist(), column.contexts())}

    def test_select_slice_shift_follow_the_rows(self):
        mask = np.array([True, False, True, True, True, False, True, True])
        assert self.ids(self.column().select(mask)) == {3: (11, 21), 4: (12, 22)}
        assert self.column().select(~mask).rows.tolist() == [0]
        assert self.column().select(np.zeros(8, dtype=bool)) is None
        assert self.ids(self.column().slice(2, 7)) == {2: (11, 21), 4: (12, 22)}
        assert self.column().slice(2, 4) is None
        assert self.ids(self.column().shifted(1)) == {2: (10, 20), 5: (11, 21), 7: (12, 22)}
        picked = self.column().at_rows(np.array([0, 4, 5, 6, 7]))
        assert self.ids(picked) == {1: (11, 21), 3: (12, 22)}
        assert self.column().at_rows(np.array([0, 7])) is None

    def test_context_objects_round_trip(self):
        """A column encoded from tuples hands back the very objects."""
        foreign = [("span", 0.5), TraceContext(3, 9)]
        column = TraceColumn.of_contexts([2, 5], foreign)
        assert column.contexts() == foreign
        assert column.context_at(2) is foreign[0] and column.context_at(3) is None
        assert column.select(np.arange(8) != 2).contexts() == [foreign[1]]
        joined = TraceColumn.concat([(self.column(), 0), (column, 8)])
        assert joined.rows.tolist() == [1, 4, 6, 10, 13]
        assert joined.contexts()[3:] == foreign
        plain = TraceColumn.concat([(self.column(), 0), (self.column(), 8)])
        assert plain.span_ids.tolist() == [20, 21, 22] * 2


class TestBlockRecording:
    """A block-recorded sink equals a span-at-a-time sink."""

    HOPS = [("source:s", None), ("box:f", 0.002), ("box:w", 0.001), ("deliver:o", 0.0)]

    def record(self, blocks):
        """Four trains of hops; ``blocks(train, hop)`` says how each hop
        of each train is recorded."""
        sink = SpanSink()
        tracer = Tracer(sink, sample_rate=0.5)
        for train in range(4):
            timestamps = train + np.arange(6, dtype=np.float64) * 0.125
            if blocks(train, 0):
                column = tracer.start_train("source:s", timestamps, node="n0")
            else:
                rows, contexts = [], []
                for row, at in enumerate(timestamps.tolist()):
                    ctx = tracer.start_trace("source:s", node="n0", at=at)
                    if ctx is not None:
                        rows.append(row)
                        contexts.append(ctx)
                column = TraceColumn.of_contexts(rows, contexts)
            for hop, (name, cost) in enumerate(self.HOPS[1:], 1):
                ends = timestamps[column.rows] + hop * 0.5
                if blocks(train, hop):
                    if name.startswith("deliver"):
                        tracer.event_block(column, name, ends)
                    else:
                        column = tracer.span_block(column, name, ends, cost, node="n1")
                    continue
                contexts = []
                for ctx, end in zip(column.contexts(), ends.tolist()):
                    if name.startswith("deliver"):
                        tracer.event(ctx, name, at=end)
                    else:
                        contexts.append(
                            tracer.span(ctx, name, node="n1", start=end - cost, end=end)
                        )
                if contexts:
                    column = TraceColumn.of_contexts(column.rows.tolist(), contexts)
        return sink

    @pytest.mark.parametrize("blocks", [
        lambda train, hop: True,
        lambda train, hop: train % 2 == 0,
        lambda train, hop: hop % 2 == 1,
        lambda train, hop: (train + hop) % 3 == 0,
    ], ids=["all-blocks", "alternate-trains", "alternate-hops", "scattered"])
    def test_equal_to_span_at_a_time(self, blocks):
        single = self.record(lambda train, hop: False)
        block = self.record(blocks)
        assert len(block) == len(single) == 48
        for prefix in ("", "box:", "deliver:o", "nope"):
            assert block.count(prefix) == single.count(prefix)
        assert block.trace_ids() == single.trace_ids()
        for trace_id in single.trace_ids():
            assert block.tree(trace_id) == single.tree(trace_id)
            assert block.nodes_visited(trace_id) == single.nodes_visited(trace_id)
        assert block.to_dict() == single.to_dict()
        assert json.dumps(block.to_dict(), sort_keys=True) == json.dumps(
            single.to_dict(), sort_keys=True)
        assert [s.to_dict() for s in block.spans] == [s.to_dict() for s in single.spans]

    def test_len_does_not_build_spans(self):
        sink = SpanSink()
        ids = sink.record_block(np.array([0, 1]), None, "source:s", "", np.array([0.5, 1.5]))
        assert ids.tolist() == [0, 1] and len(sink) == 2 and sink._spans == []
        assert sink.record(0, 0, "box:f") == 2  # singles keep record order...
        assert sink._spans == []                # ...and build nothing either
        assert [s.span_id for s in sink.spans] == [0, 1, 2] and len(sink) == 3
        assert sink.record(1, 1, "box:f") == 3 and len(sink._spans) == 4
