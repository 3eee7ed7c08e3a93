"""Pickle-free wire framing for tuple trains (the real data plane).

The transport simulator (:mod:`repro.network.transport`) accounts for
frame *sizes*; this module produces the frames themselves.  The parallel
execution plane (:mod:`repro.parallel`) ships every message between the
coordinator and its worker processes as one of these frames, so the
format has three hard requirements:

* **No pickle.**  Frames cross process (and eventually host) boundaries;
  the decoder must never execute arbitrary constructors.  The payload is
  a closed tagged binary format over plain values (None, bool, int,
  float, str, bytes, list, tuple, dict) plus the stream-tuple metadata
  the engine actually carries (timestamp, seq, origin, trace context).
* **Row-free columnar framing.**  A :class:`~repro.core.columnar.ColumnarTrain`
  is framed column-at-a-time — native dtypes ship as raw array bytes,
  object columns fall back to the tagged value codec — so a columnar
  train crosses the wire without ever materializing rows, mirroring how
  it rides the engine's arcs.
* **Versioned and self-describing.**  Every frame opens with a magic
  byte, a format version and a frame kind, so a mixed-version worker
  pool fails loudly instead of misparsing.

Frame layout::

    byte 0   magic (0xA5)
    byte 1   version (1)
    byte 2   kind: 0 control / 1 row train / 2 columnar train
    body     control: UTF-8 JSON object
             data:    route string, then the train payload

``route`` is the destination arc id (worker ingress) or ``out:<stream>``
(delivery to the coordinator).  Trace contexts survive the trip: a
sampled tuple decoded on the far side carries a reconstructed
:class:`~repro.obs.trace.TraceContext` with the same trace/span ids.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Union

import numpy as np

from repro.core.columnar import ColumnarTrain, as_column
from repro.core.tuples import StreamTuple
from repro.obs.trace import TraceColumn, TraceContext

MAGIC = 0xA5
VERSION = 1

KIND_CONTROL = 0
KIND_ROWS = 1
KIND_COLUMNAR = 2

# Native-dtype columns ship as raw array bytes under one of these tags;
# everything else falls back to the tagged value codec (tag 0xFF).
_DTYPE_TAGS: dict[str, int] = {"<f8": 1, "<i8": 2, "|b1": 3}
_TAG_DTYPES: dict[int, str] = {v: k for k, v in _DTYPE_TAGS.items()}
_OBJECT_COLUMN = 0xFF

_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")
_I64 = struct.Struct("<q")


class FrameError(ValueError):
    """Raised for unencodable values or malformed/foreign frames."""


# -- tagged value codec -------------------------------------------------------
#
# One byte of tag, then the value.  The closed set below covers every
# value the repo's operators and workloads put in a tuple; anything else
# (arbitrary objects, functions, NaN-keyed dicts...) raises FrameError
# with the offending type, which is the behavior we want from a codec
# that refuses to smuggle pickles.


def _encode_value(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(0x00)
    elif value is True:
        out.append(0x01)
    elif value is False:
        out.append(0x02)
    elif type(value) is int or isinstance(value, (int, np.integer)):
        value = int(value)
        if -(2**63) <= value < 2**63:
            out.append(0x03)
            out += _I64.pack(value)
        else:  # arbitrary-precision fallback (exact, still no pickle)
            text = str(value).encode("ascii")
            out.append(0x04)
            out += _U32.pack(len(text))
            out += text
    elif isinstance(value, (float, np.floating)):
        out.append(0x05)
        out += _F64.pack(float(value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(0x06)
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(value, bytes):
        out.append(0x07)
        out += _U32.pack(len(value))
        out += value
    elif isinstance(value, (list, tuple)):
        out.append(0x08 if isinstance(value, list) else 0x09)
        out += _U32.pack(len(value))
        for item in value:
            _encode_value(out, item)
    elif isinstance(value, dict):
        out.append(0x0A)
        out += _U32.pack(len(value))
        for key, item in value.items():
            _encode_value(out, key)
            _encode_value(out, item)
    else:
        raise FrameError(
            f"cannot frame value of type {type(value).__name__}: the wire "
            "codec carries plain data only (no pickle)"
        )


class _Reader:
    """Cursor over a frame body; every read bounds-checks."""

    __slots__ = ("data", "pos")

    def __init__(self, data: Union[bytes, memoryview], pos: int = 0):
        self.data = memoryview(data)
        self.pos = pos

    def take(self, n: int) -> memoryview:
        end = self.pos + n
        if end > len(self.data):
            raise FrameError("truncated frame")
        view = self.data[self.pos:end]
        self.pos = end
        return view

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def f64(self) -> float:
        return _F64.unpack(self.take(8))[0]

    def i64(self) -> int:
        return _I64.unpack(self.take(8))[0]

    def string(self) -> str:
        return bytes(self.take(self.u32())).decode("utf-8")


def _decode_value(reader: _Reader) -> Any:
    tag = reader.u8()
    if tag == 0x00:
        return None
    if tag == 0x01:
        return True
    if tag == 0x02:
        return False
    if tag == 0x03:
        return reader.i64()
    if tag == 0x04:
        return int(bytes(reader.take(reader.u32())).decode("ascii"))
    if tag == 0x05:
        return reader.f64()
    if tag == 0x06:
        return reader.string()
    if tag == 0x07:
        return bytes(reader.take(reader.u32()))
    if tag in (0x08, 0x09):
        items = [_decode_value(reader) for _ in range(reader.u32())]
        return items if tag == 0x08 else tuple(items)
    if tag == 0x0A:
        return {
            _decode_value(reader): _decode_value(reader)
            for _ in range(reader.u32())
        }
    raise FrameError(f"unknown value tag 0x{tag:02X}")


def _encode_str(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    out += _U32.pack(len(raw))
    out += raw


# -- row-train payload --------------------------------------------------------


def _encode_rows(out: bytearray, tuples: list[StreamTuple]) -> None:
    out += _U32.pack(len(tuples))
    for tup in tuples:
        out += _F64.pack(tup.timestamp)
        if tup.seq is None:
            out.append(0)
        else:
            out.append(1)
            out += _I64.pack(tup.seq)
        if tup.origin is None:
            out.append(0)
        else:
            out.append(1)
            _encode_str(out, tup.origin)
        trace = tup.trace
        if trace is None:
            out.append(0)
        else:
            out.append(1)
            out += _I64.pack(trace.trace_id)
            out += _I64.pack(trace.span_id)
        _encode_value(out, tup.values)


def _decode_rows(reader: _Reader) -> list[StreamTuple]:
    count = reader.u32()
    tuples: list[StreamTuple] = []
    for _ in range(count):
        timestamp = reader.f64()
        seq = reader.i64() if reader.u8() else None
        origin = reader.string() if reader.u8() else None
        trace = None
        if reader.u8():
            trace = TraceContext(reader.i64(), reader.i64())
        values = _decode_value(reader)
        if not isinstance(values, dict):
            raise FrameError("tuple values must decode to a dict")
        tuples.append(
            StreamTuple.from_parts(values, timestamp, seq, origin, trace)
        )
    return tuples


# -- columnar payload (row-free) ----------------------------------------------


def _encode_column(out: bytearray, column: np.ndarray) -> None:
    tag = _DTYPE_TAGS.get(column.dtype.str)
    if tag is not None:
        out.append(tag)
        raw = np.ascontiguousarray(column).tobytes()
        out += _U32.pack(len(column))
        out += raw
    else:  # object (or exotic) column: exact per-value fallback
        out.append(_OBJECT_COLUMN)
        out += _U32.pack(len(column))
        for value in column.tolist():
            _encode_value(out, value)


def _decode_column(reader: _Reader) -> np.ndarray:
    tag = reader.u8()
    count = reader.u32()
    if tag == _OBJECT_COLUMN:
        return as_column([_decode_value(reader) for _ in range(count)])
    dtype = _TAG_DTYPES.get(tag)
    if dtype is None:
        raise FrameError(f"unknown column dtype tag 0x{tag:02X}")
    width = np.dtype(dtype).itemsize
    raw = reader.take(count * width)
    return np.frombuffer(raw, dtype=dtype).copy()


def _encode_columnar(out: bytearray, train: ColumnarTrain) -> None:
    out += _U32.pack(len(train.fields))
    for field in train.fields:
        _encode_str(out, field)
    for field in train.fields:
        _encode_column(out, train.columns[field])
    _encode_column(out, train.timestamps)
    for optional in (train.seqs, train.origins):
        if optional is None:
            out.append(0)
        else:
            out.append(1)
            _encode_column(out, optional)
    traces = train.traces
    if traces is None:
        out += _U32.pack(0)
        return
    out += _U32.pack(len(traces))
    for index, trace_id, span_id in zip(
        traces.rows.tolist(), traces.trace_ids.tolist(), traces.span_ids.tolist()
    ):
        out += _U32.pack(index)
        out += _I64.pack(trace_id)
        out += _I64.pack(span_id)


def _decode_columnar(reader: _Reader) -> ColumnarTrain:
    n_fields = reader.u32()
    fields = tuple(reader.string() for _ in range(n_fields))
    columns = {field: _decode_column(reader) for field in fields}
    timestamps = _decode_column(reader)
    if timestamps.dtype.str != "<f8":
        raise FrameError("timestamp column must decode to float64")
    seqs = _decode_column(reader) if reader.u8() else None
    origins = _decode_column(reader) if reader.u8() else None
    entries = sorted(
        (reader.u32(), reader.i64(), reader.i64()) for _ in range(reader.u32())
    )
    traces = None
    if entries:
        rows, trace_ids, span_ids = (
            np.asarray(column, dtype=np.int64) for column in zip(*entries)
        )
        traces = TraceColumn(rows, trace_ids, span_ids)
    return ColumnarTrain(
        fields, columns, timestamps, seqs=seqs, origins=origins, traces=traces
    )


# -- public frame API ---------------------------------------------------------

Train = Union[list[StreamTuple], ColumnarTrain]


def encode_control(payload: dict) -> bytes:
    """Frame one control message (handshake, fence, stats, ...)."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return bytes([MAGIC, VERSION, KIND_CONTROL]) + body.encode("utf-8")


def encode_data(route: str, train: Train) -> bytes:
    """Frame one tuple train for ``route`` (an arc id or ``out:<stream>``).

    A ``ColumnarTrain`` is framed row-free (columns as raw array bytes);
    a ``list[StreamTuple]`` is framed row-at-a-time.  The decoder
    returns the same representation it was handed.
    """
    if isinstance(train, ColumnarTrain):
        out = bytearray([MAGIC, VERSION, KIND_COLUMNAR])
        _encode_str(out, route)
        _encode_columnar(out, train)
    else:
        out = bytearray([MAGIC, VERSION, KIND_ROWS])
        _encode_str(out, route)
        _encode_rows(out, train)
    return bytes(out)


def decode_frame(frame: bytes) -> tuple[int, Any, Any]:
    """Parse any frame: ``(kind, route_or_None, payload)``.

    Control frames return ``(KIND_CONTROL, None, dict)``; data frames
    return ``(kind, route, train)`` with the train in its original
    representation.
    """
    if len(frame) < 3:
        raise FrameError("frame shorter than its header")
    if frame[0] != MAGIC:
        raise FrameError(f"bad frame magic 0x{frame[0]:02X}")
    if frame[1] != VERSION:
        raise FrameError(
            f"frame version {frame[1]} does not match codec version {VERSION}"
        )
    kind = frame[2]
    if kind == KIND_CONTROL:
        try:
            payload = json.loads(frame[3:].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FrameError(f"malformed control frame: {exc}") from None
        return KIND_CONTROL, None, payload
    reader = _Reader(frame, pos=3)
    route = reader.string()
    if kind == KIND_ROWS:
        return kind, route, _decode_rows(reader)
    if kind == KIND_COLUMNAR:
        return kind, route, _decode_columnar(reader)
    raise FrameError(f"unknown frame kind {kind}")


def decode_data(frame: bytes) -> tuple[str, Train]:
    """Parse a data frame; raises :class:`FrameError` on control frames."""
    kind, route, train = decode_frame(frame)
    if kind == KIND_CONTROL:
        raise FrameError("expected a data frame, got a control frame")
    return route, train
