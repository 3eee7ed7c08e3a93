"""Tests for Join (windowed binary join) and Resample (extrapolation)."""

import pytest

from repro.core.engine import AuroraEngine
from repro.core.operators.join import Join, equijoin
from repro.core.operators.resample import Resample
from repro.core.query import QueryNetwork
from repro.core.tuples import StreamTuple
from repro.obs.trace import Tracer


class TestJoin:
    def test_matches_against_opposite_window(self):
        box = equijoin("key")
        assert box.process(StreamTuple({"key": 1, "x": "a"}), port=0) == []
        out = box.process(StreamTuple({"key": 1, "y": "b"}), port=1)
        assert len(out) == 1
        assert out[0][1].values == {"key": 1, "x": "a", "y": "b"}

    def test_no_match_for_different_keys(self):
        box = equijoin("key")
        box.process(StreamTuple({"key": 1}), port=0)
        assert box.process(StreamTuple({"key": 2}), port=1) == []

    def test_conflicting_fields_get_prefixes(self):
        box = equijoin("key")
        box.process(StreamTuple({"key": 1, "v": 10}), port=0)
        [(_, merged)] = box.process(StreamTuple({"key": 1, "v": 20}), port=1)
        # The join key has equal values on both sides -> unprefixed;
        # "v" genuinely conflicts -> side prefixes.
        assert merged.values == {"key": 1, "left_v": 10, "right_v": 20}

    def test_window_eviction(self):
        box = equijoin("key", window=1)
        box.process(StreamTuple({"key": 1, "v": 1}), port=0)
        box.process(StreamTuple({"key": 1, "v": 2}), port=0)  # evicts v=1
        out = box.process(StreamTuple({"key": 1, "w": 0}), port=1)
        assert len(out) == 1
        assert out[0][1]["v"] == 2

    def test_selectivity_can_exceed_one(self):
        # The paper's rationale for sliding joins downstream: a join can
        # produce more tuples than it consumes.
        box = equijoin("key", window=10)
        for v in range(3):
            box.process(StreamTuple({"key": 1, "v": v}), port=0)
        out = box.process(StreamTuple({"key": 1, "w": 0}), port=1)
        assert len(out) == 3

    def test_merged_timestamp_is_older_input(self):
        box = equijoin("key")
        box.process(StreamTuple({"key": 1, "v": 0}, timestamp=1.0), port=0)
        [(_, merged)] = box.process(StreamTuple({"key": 1, "w": 0}, timestamp=5.0), port=1)
        assert merged.timestamp == 1.0

    def test_symmetric(self):
        box = equijoin("key")
        box.process(StreamTuple({"key": 1, "y": "b"}), port=1)
        out = box.process(StreamTuple({"key": 1, "x": "a"}), port=0)
        assert len(out) == 1

    def test_rejects_bad_port(self):
        with pytest.raises(ValueError):
            equijoin("key").process(StreamTuple({"key": 1}), port=2)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            Join(lambda a, b: True, window=0)

    def test_snapshot_restore(self):
        box = equijoin("key")
        box.process(StreamTuple({"key": 1, "v": 9}), port=0)
        fresh = equijoin("key")
        fresh.restore(box.snapshot())
        out = fresh.process(StreamTuple({"key": 1, "w": 0}), port=1)
        assert len(out) == 1 and out[0][1]["v"] == 9


class TestResample:
    def test_interpolates_on_grid(self):
        box = Resample("v", interval=1.0)
        box.process(StreamTuple({"v": 0.0}, timestamp=0.0))
        out = box.process(StreamTuple({"v": 4.0}, timestamp=2.0))
        values = [(t["time"], t["v"]) for _, t in out]
        assert values == [(0.0, 0.0), (1.0, 2.0), (2.0, 4.0)]

    def test_irregular_input_spacing(self):
        box = Resample("v", interval=1.0)
        box.process(StreamTuple({"v": 0.0}, timestamp=0.5))
        out = box.process(StreamTuple({"v": 1.0}, timestamp=2.5))
        times = [t["time"] for _, t in out]
        assert times == [1.0, 2.0]
        # Linear interpolation: v(1.0) = (1.0-0.5)/2 = 0.25
        assert out[0][1]["v"] == pytest.approx(0.25)

    def test_no_output_before_second_tuple(self):
        box = Resample("v", interval=1.0)
        assert box.process(StreamTuple({"v": 1.0}, timestamp=0.0)) == []

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            Resample("v", interval=0.0)

    def test_snapshot_restore(self):
        box = Resample("v", interval=1.0)
        box.process(StreamTuple({"v": 0.0}, timestamp=0.0))
        fresh = Resample("v", interval=1.0)
        fresh.restore(box.snapshot())
        out = fresh.process(StreamTuple({"v": 2.0}, timestamp=1.0))
        assert [(t["time"], t["v"]) for _, t in out] == [(0.0, 0.0), (1.0, 2.0)]

    def test_a_sampled_tuple_stays_sampled(self):
        # Interpolated tuples are derived from the earlier observation,
        # like every other operator's output: its timestamp AND its
        # trace context (the hand-built tuple used to drop the trace,
        # so the span chain ended here and no delivery was recorded).
        ctx = object()
        box = Resample("v", interval=1.0)
        box.process(StreamTuple({"v": 0.0}, timestamp=0.0, trace=ctx))
        out = box.process(StreamTuple({"v": 4.0}, timestamp=2.0))
        assert [t.trace for _, t in out] == [ctx] * 3
        assert [t.timestamp for _, t in out] == [0.0] * 3

    def test_deliveries_behind_a_resample_box_are_traced(self):
        net = QueryNetwork()
        net.add_box("r", Resample("v", interval=1.0))
        net.connect("in:s", "r")
        net.connect("r", "out:o")
        tracer = Tracer(sample_rate=1.0)
        engine = AuroraEngine(net, tracer=tracer)
        for i in range(4):
            engine.push("s", StreamTuple({"v": float(i)}, timestamp=float(i)))
        engine.run_until_idle()
        assert len(engine.outputs["o"]) == 4
        assert tracer.sink.count("deliver:o") == 4
