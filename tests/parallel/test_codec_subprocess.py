"""Codec round-trips across a real process boundary.

A fresh interpreter (``subprocess``, not fork — nothing inherited) is
handed raw frame bytes, decodes them with its own import of the codec,
transforms the train, and frames the result back.  This is the property
the parallel plane actually relies on: bytes produced in one process
are a complete description of the train — values, timestamps, trace
contexts — for any other process.
"""

import os
import subprocess
import sys

import pytest

from repro.core.columnar import ColumnarTrain
from repro.core.tuples import StreamTuple
from repro.network.framing import decode_frame, encode_data
from repro.obs.trace import TraceContext

# The child re-frames the decoded train after bumping each tuple's "v"
# by 1000, proving it decoded real values (not echoed bytes).
CHILD_SCRIPT = """
import sys
from repro.core.columnar import ColumnarTrain
from repro.core.tuples import StreamTuple
from repro.network.framing import decode_frame, encode_data

frame = sys.stdin.buffer.read()
_kind, route, train = decode_frame(frame)
columnar = isinstance(train, ColumnarTrain)
rows = train.to_tuples() if columnar else train
bumped = [
    StreamTuple(
        dict(tup.values, v=tup.values["v"] + 1000),
        timestamp=tup.timestamp,
        trace=tup.trace,
    )
    for tup in rows
]
out = ColumnarTrain.from_tuples(bumped) if columnar else bumped
sys.stdout.buffer.write(encode_data(route + ":echoed", out))
"""


def round_trip_through_child(frame: bytes) -> tuple[str, list]:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", CHILD_SCRIPT],
        input=frame,
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr.decode()
    _kind, route, train = decode_frame(result.stdout)
    rows = train.to_tuples() if isinstance(train, ColumnarTrain) else train
    return route, rows


def make_rows():
    return [
        StreamTuple(
            {"v": i, "label": f"t{i}", "scale": i * 0.5},
            timestamp=i * 0.125,
            trace=TraceContext(trace_id=100 + i, span_id=200 + i),
        )
        for i in range(4)
    ]


@pytest.mark.parametrize("representation", ["rows", "columnar"])
def test_cross_process_round_trip(representation):
    rows = make_rows()
    train = ColumnarTrain.from_tuples(rows) if representation == "columnar" else rows
    route, back = round_trip_through_child(encode_data("arc7", train))
    assert route == "arc7:echoed"
    assert len(back) == len(rows)
    for original, echoed in zip(rows, back):
        assert echoed.values["v"] == original.values["v"] + 1000
        assert echoed.values["label"] == original.values["label"]
        assert echoed.values["scale"] == original.values["scale"]
        assert echoed.timestamp == original.timestamp


@pytest.mark.parametrize("representation", ["rows", "columnar"])
def test_trace_context_survives_process_boundary(representation):
    rows = make_rows()
    train = ColumnarTrain.from_tuples(rows) if representation == "columnar" else rows
    _route, back = round_trip_through_child(encode_data("arc7", train))
    for original, echoed in zip(rows, back):
        assert echoed.trace is not None
        assert echoed.trace.trace_id == original.trace.trace_id
        assert echoed.trace.span_id == original.trace.span_id


def test_sparse_traces_survive():
    rows = make_rows()
    rows[1] = StreamTuple(rows[1].values, timestamp=rows[1].timestamp)  # no trace
    _route, back = round_trip_through_child(encode_data("arc7", rows))
    assert back[1].trace is None
    assert back[0].trace is not None and back[0].trace.trace_id == 100
