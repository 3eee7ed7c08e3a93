"""In-process round-trips of the pickle-free wire codec.

The generated half (``TestTypeExactRoundTrip``, ``TestFrameFuzz``) runs
on Hypothesis's default example budget in tier-1; CI's
``robustness-smoke`` step reruns it under the ``robustness`` profile of
``conftest.py`` with a fixed ``--hypothesis-seed``.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from repro.core.columnar import ColumnarTrain
from repro.core.tuples import StreamTuple
from repro.network.framing import (
    KIND_COLUMNAR,
    KIND_CONTROL,
    KIND_ROWS,
    MAGIC,
    FrameError,
    decode_frame,
    encode_control,
    encode_data,
)
from repro.obs.trace import TraceContext


def make_rows():
    return [
        StreamTuple(
            {"sym": "A", "px": 10.5, "n": 3, "ok": True, "note": None},
            timestamp=0.25,
            trace=TraceContext(11, 22),
        ),
        StreamTuple({"sym": "B", "px": -2.0, "n": 0, "ok": False, "note": None},
                    timestamp=0.5),
    ]


def assert_trains_equal(a, b):
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert left.values == right.values
        assert left.timestamp == right.timestamp
        if left.trace is None:
            assert right.trace is None
        else:
            assert right.trace is not None
            assert (left.trace.trace_id, left.trace.span_id) == (
                right.trace.trace_id,
                right.trace.span_id,
            )


class TestControlFrames:
    def test_round_trip(self):
        payload = {"type": "fence", "round": 3, "sent": {"w0": 1}, "ok": True}
        kind, route, decoded = decode_frame(encode_control(payload))
        assert kind == KIND_CONTROL
        assert route is None
        assert decoded == payload


class TestRowFrames:
    def test_round_trip_preserves_metadata(self):
        rows = make_rows()
        frame = encode_data("arc3", rows)
        kind, route, train = decode_frame(frame)
        assert kind == KIND_ROWS
        assert route == "arc3"
        assert_trains_equal(rows, train)

    def test_value_types(self):
        rows = [
            StreamTuple(
                {
                    "i": 2**40,
                    "big": 2**80,  # beyond i64: bigint fallback
                    "f": 1.5e-9,
                    "s": "héllo",
                    "b": b"\x00\xff",
                    "lst": [1, "two", None],
                    "tup": (1, 2),
                    "map": {"k": [True, False]},
                },
                timestamp=1.0,
            )
        ]
        _kind, _route, train = decode_frame(encode_data("a", rows))
        assert train[0].values == rows[0].values

    def test_unencodable_value_raises(self):
        rows = [StreamTuple({"x": object()}, timestamp=0.0)]
        with pytest.raises(FrameError):
            encode_data("a", rows)

    def test_empty_train(self):
        _kind, route, train = decode_frame(encode_data("a", []))
        assert route == "a"
        assert train == []


class TestColumnarFrames:
    def test_round_trip_stays_columnar(self):
        rows = make_rows()
        columnar = ColumnarTrain.from_tuples(rows)
        frame = encode_data("out:px", columnar)
        kind, route, train = decode_frame(frame)
        assert kind == KIND_COLUMNAR
        assert route == "out:px"
        assert isinstance(train, ColumnarTrain)
        assert_trains_equal(rows, train.to_tuples())

    def test_numeric_columns_ship_as_raw_dtype(self):
        rows = [StreamTuple({"v": float(i), "k": i}, timestamp=i * 0.1)
                for i in range(5)]
        columnar = ColumnarTrain.from_tuples(rows)
        _kind, _route, train = decode_frame(encode_data("a", columnar))
        assert train.column("v").dtype == np.dtype("<f8")
        assert train.column("k").dtype == np.dtype("<i8")
        assert_trains_equal(rows, train.to_tuples())

    def test_object_column_fallback(self):
        rows = [StreamTuple({"tag": ("x", i)}, timestamp=float(i)) for i in range(3)]
        columnar = ColumnarTrain.from_tuples(rows)
        _kind, _route, train = decode_frame(encode_data("a", columnar))
        assert isinstance(train, ColumnarTrain)
        assert_trains_equal(rows, train.to_tuples())


# -- generated trains ----------------------------------------------------------

I64 = 2**63

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.sampled_from([-I64 - 1, -I64, I64 - 1, I64, 0, 1]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1.0, float("nan")]),
    st.text(max_size=6),
    st.binary(max_size=6),
)
keys = st.one_of(st.text(max_size=3), st.integers(-5, 5), st.booleans(), st.none())
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(keys, inner, max_size=3),
    ),
    max_leaves=5,
)
# What a column holds: one Python type throughout (a native dtype on
# the wire when it is int/float/bool), or any mix (an object column).
column_kinds = st.sampled_from(
    [
        st.integers(-I64, I64 - 1),
        st.integers(-(2**66), 2**66),  # straddles int64: must not turn float
        st.floats(allow_nan=True),
        st.booleans(),
        st.text(max_size=4),
        st.one_of(st.integers(-3, 3), st.floats(-3, 3), st.booleans()),
        values,
    ]
)
contexts = st.builds(
    TraceContext, st.integers(-I64, I64 - 1), st.integers(-I64, I64 - 1)
)


@st.composite
def row_trains(draw, max_rows=6):
    """A row train: homogeneous or ragged, keys reordered on some rows,
    trace contexts on some, possibly empty or field-less."""
    fields = draw(st.lists(st.text(max_size=3), max_size=4, unique=True))
    kinds = {field: draw(column_kinds) for field in fields}
    ragged = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        names = draw(st.permutations(fields))
        if ragged and draw(st.booleans()):
            names = names[1:] + draw(st.lists(st.just("extra"), max_size=1))
        rows.append(
            StreamTuple.from_parts(
                {name: draw(kinds.get(name, values)) for name in names},
                draw(st.floats(allow_nan=False)),
                trace=draw(st.none() | contexts),
            )
        )
    return rows


def same(got, want):
    """Equal AND the same Python type, all the way down (so 1, 1.0 and
    True are three things, and NaN / -0.0 compare by their bits)."""
    if type(got) is not type(want):
        return False
    if isinstance(want, float):
        return struct.pack("<d", got) == struct.pack("<d", want)
    if isinstance(want, (list, tuple)):
        return len(got) == len(want) and all(map(same, got, want))
    if isinstance(want, dict):
        # Insertion order is not part of the contract (a column body
        # hands every row the first row's field order), so pair by key.
        # A NaN key only equals itself by identity: pair those by bits.
        def keyed(mapping):
            return {
                (type(k), struct.pack("<d", k) if isinstance(k, float) else k): v
                for k, v in mapping.items()
            }

        got, want = keyed(got), keyed(want)
        return got.keys() == want.keys() and all(same(got[k], want[k]) for k in want)
    return got == want


def assert_type_exact(rows, back):
    assert len(back) == len(rows)
    for want, got in zip(rows, back):
        assert type(got) is StreamTuple
        assert same(got.values, want.values), (got.values, want.values)
        assert same(got.timestamp, want.timestamp)
        assert (got.trace is None) == (want.trace is None)
        if want.trace is not None:
            assert same(
                (got.trace.trace_id, got.trace.span_id),
                (want.trace.trace_id, want.trace.span_id),
            )


class TestTypeExactRoundTrip:
    @settings(deadline=None)
    @given(row_trains())
    def test_rows_come_back_as_themselves(self, rows):
        kind, route, back = decode_frame(encode_data("arc", rows))
        assert (kind, route) == (KIND_ROWS, "arc")
        assert type(back) is list
        assert_type_exact(rows, back)

    @settings(deadline=None)
    @given(row_trains())
    def test_columnar_trains_come_back_as_themselves(self, rows):
        train = ColumnarTrain.from_tuples(rows)
        if train is None:  # ragged or empty: no columnar representation
            return
        kind, _route, back = decode_frame(encode_data("arc", train))
        assert kind == KIND_COLUMNAR
        assert type(back) is ColumnarTrain
        assert back.fields == train.fields
        for field in train.fields:
            assert back.columns[field].dtype == train.columns[field].dtype
        assert_type_exact(rows, back.to_tuples())

    def test_uniform_ints_straddling_int64_stay_ints(self):
        # numpy promotes [2**63, -1] to float64; as_column must not.
        rows = [StreamTuple({"n": n}, timestamp=0.0) for n in (2**63, -1)]
        train = ColumnarTrain.from_tuples(rows)
        assert train.columns["n"].dtype == object
        assert_type_exact(rows, decode_frame(encode_data("a", rows))[2])

    def test_a_ragged_train_ships_one_object_column(self):
        rows = [
            StreamTuple({"a": 1}, timestamp=0.5, trace=TraceContext(5, 6)),
            StreamTuple({"b": 2.0, "": None}, timestamp=0.75),
        ]
        assert ColumnarTrain.from_tuples(rows) is None
        assert_type_exact(rows, decode_frame(encode_data("a", rows))[2])

    def test_decoded_native_columns_are_views_of_the_frame(self):
        rows = [StreamTuple({"v": float(i)}, timestamp=float(i)) for i in range(4)]
        _kind, _route, train = decode_frame(encode_data("a", ColumnarTrain.from_tuples(rows)))
        column = train.column("v")
        assert not column.flags.owndata and not column.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1.0  # a kernel writing in place fails loudly


# -- fuzz ----------------------------------------------------------------------


def assert_well_formed(kind, route, payload):
    """What a decode that did not raise must have produced."""
    if kind == KIND_CONTROL:
        assert route is None and type(payload) is dict
        return
    assert type(route) is str
    if kind == KIND_COLUMNAR:
        assert type(payload) is ColumnarTrain
        assert all(len(column) == len(payload) for column in payload.columns.values())
        rows = payload.to_tuples()  # every trace entry must land on a row
        assert len(rows) == len(payload)
        payload = rows
    assert type(payload) is list
    for tup in payload:
        assert type(tup) is StreamTuple and type(tup.values) is dict


def decode_or_frame_error(frame):
    note(f"frame hex: {frame.hex()}")
    try:
        decoded = decode_frame(frame)
    except FrameError:
        return None
    assert_well_formed(*decoded)
    return decoded


@st.composite
def valid_frames(draw):
    """A row, column or control frame over a small generated train."""
    rows = draw(row_trains(max_rows=3))
    train = ColumnarTrain.from_tuples(rows)
    choice = draw(st.sampled_from(["rows", "columns", "control"]))
    if choice == "control":
        return encode_control({"type": "fence", "round": len(rows), "sent": {"w0": 1}})
    route = draw(st.sampled_from(["arc7", "out:sink", ""]))
    return encode_data(route, train if choice == "columns" and train else rows)


class TestFrameFuzz:
    @settings(deadline=None)
    @given(valid_frames())
    def test_every_strict_prefix_is_a_frame_error(self, frame):
        assert decode_or_frame_error(frame) is not None
        for cut in range(len(frame)):
            with pytest.raises(FrameError):
                decode_frame(frame[:cut])

    @settings(deadline=None)
    @given(valid_frames(), st.integers(1, 255), st.data())
    def test_a_flipped_byte_decodes_or_is_a_frame_error(self, frame, mask, data):
        # Every position of small frames, a sample of large ones.
        positions = range(len(frame))
        if len(frame) > 256:
            positions = data.draw(st.lists(st.sampled_from(positions), max_size=256))
        for position in positions:
            flipped = bytearray(frame)
            flipped[position] ^= mask
            decode_or_frame_error(bytes(flipped))

    @settings(deadline=None)
    @given(
        valid_frames().filter(lambda frame: frame[2] != KIND_CONTROL),
        st.binary(min_size=1, max_size=4),
    )
    def test_trailing_bytes_are_rejected(self, frame, garbage):
        with pytest.raises(FrameError, match="trailing bytes"):
            decode_frame(frame + garbage)

    def test_a_trace_entry_past_the_train_is_a_frame_error(self):
        # Two rows, the second sampled; move its trace entry to row 2.
        frame = encode_data("arc", make_rows()[::-1])
        entry = struct.pack("<q", 1)
        at = frame.rindex(entry, 0, len(frame) - 16)  # the rows column, not the ids
        broken = frame[:at] + struct.pack("<q", 2) + frame[at + 8 :]
        with pytest.raises(FrameError, match="trace entry"):
            decode_frame(broken)

    def test_a_v2_frame_is_rejected_with_the_version_message(self):
        # What PR 22 put on the wire for an unsampled train: two absent
        # lineage columns (a zero flag byte each) ahead of the trace flag.
        v3 = encode_data("arc", make_rows()[1:])
        assert v3[-1] == 0  # no sampled row
        v2 = bytes([MAGIC, 2]) + v3[2:-1] + b"\x00\x00" + v3[-1:]
        with pytest.raises(FrameError, match="version 2 does not match codec version 3"):
            decode_frame(v2)


class TestMalformedFrames:
    def test_bad_magic(self):
        frame = bytearray(encode_control({"type": "stop"}))
        frame[0] ^= 0xFF
        with pytest.raises(FrameError):
            decode_frame(bytes(frame))

    def test_bad_version(self):
        frame = bytearray(encode_control({"type": "stop"}))
        frame[1] = 99
        with pytest.raises(FrameError):
            decode_frame(bytes(frame))

    def test_truncated(self):
        frame = encode_data("arc", make_rows())
        with pytest.raises(FrameError):
            decode_frame(frame[: len(frame) // 2])

    def test_empty(self):
        with pytest.raises(FrameError):
            decode_frame(b"")
