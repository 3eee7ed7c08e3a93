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
  the engine actually carries (timestamp, trace context).
* **One column body.**  Section 4's transport ships tuple *trains*, so
  the schema is paid once per train, not once per value: every data
  frame is framed column-at-a-time — native dtypes as raw array bytes,
  object columns through the tagged value codec — whichever
  representation the sender held; nothing ships one tuple at a time.
* **Versioned and self-describing.**  Every frame opens with a magic
  byte, a format version and a frame kind, so a mixed-version worker
  pool fails loudly instead of misparsing.

Frame layout::

    byte 0   magic (0xA5)
    byte 1   version (3)
    byte 2   kind: 0 control / 1 row train / 2 columnar train
    body     control: UTF-8 JSON object
             data:    route string, then the column body:
      u32 field count, then each field name (u32 length + UTF-8)
      one column per field, then the float64 timestamp column
      flag byte + three int64 columns: sampled rows, trace ids, span ids
    column   u8 dtype tag, u32 count, then count raw little-endian
             float64 / int64 / bool items or (tag 0xFF) tagged values

The kind of a data frame says what the receiver is handed, so the
decoder returns the representation the encoder was given: a columnar
body stays a :class:`ColumnarTrain`; a row train is transposed by
:meth:`ColumnarTrain.from_tuples` and *materialized on arrival* by
:meth:`ColumnarTrain.to_tuples`, which keep Python type identity (``1``,
``1.0`` and ``True`` come back as themselves).  A *ragged* row train
(key sets differ between rows, or there are no rows) announces a field
count of ``0xFFFFFFFF`` and ships each row's ``values`` dict in one
unnamed object column.  Native columns decode without a copy, as
read-only views of the frame's bytes: trains are immutable by
convention, and a kernel that writes in place fails loudly instead of
corrupting a frame.

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
from repro.obs.trace import TraceColumn

MAGIC = 0xA5
VERSION = 3

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


# -- the column body (row-free) -----------------------------------------------

# Field count of a ragged row train: ONE unnamed column, of the rows' values dicts.
_RAGGED = 0xFFFFFFFF


def _encode_column(out: bytearray, column: np.ndarray) -> None:
    tag = _DTYPE_TAGS.get(column.dtype.str)
    out.append(_OBJECT_COLUMN if tag is None else tag)
    out += _U32.pack(len(column))
    if tag is not None:
        out += np.ascontiguousarray(column).tobytes()
    else:  # object (or exotic) column: exact per-value fallback
        for value in column.tolist():
            _encode_value(out, value)


def _decode_column(reader: _Reader, dtype: str | None = None) -> np.ndarray:
    """One column; with ``dtype``, one that must come back as exactly that."""
    tag = reader.u8()
    count = reader.u32()
    if tag == _OBJECT_COLUMN:
        column = as_column([_decode_value(reader) for _ in range(count)])
    elif tag in _TAG_DTYPES:
        native = np.dtype(_TAG_DTYPES[tag])
        column = np.frombuffer(reader.take(count * native.itemsize), dtype=native)
    else:
        raise FrameError(f"unknown column dtype tag 0x{tag:02X}")
    if dtype is not None and column.dtype.str != dtype:
        raise FrameError(f"expected a {dtype} column, got {column.dtype.str}")
    return column


def _encode_columnar(out: bytearray, train: ColumnarTrain, ragged: bool) -> None:
    if ragged:
        out += _U32.pack(_RAGGED)
    else:
        out += _U32.pack(len(train.fields))
        for field in train.fields:
            _encode_str(out, field)
    for field in train.fields:
        _encode_column(out, train.columns[field])
    _encode_column(out, train.timestamps)
    traces = train.traces
    out.append(1 if traces else 0)
    if traces:
        for column in (traces.rows, traces.trace_ids, traces.span_ids):
            _encode_column(out, column)


def _decode_columnar(reader: _Reader) -> tuple[ColumnarTrain, bool]:
    """The train of a column body, and whether it is a ragged row train."""
    n_fields = reader.u32()
    ragged = n_fields == _RAGGED
    fields = ("",) if ragged else tuple(reader.string() for _ in range(n_fields))
    if len(set(fields)) != len(fields):
        raise FrameError("duplicate field name")
    columns = {field: _decode_column(reader) for field in fields}
    timestamps = _decode_column(reader, "<f8")
    traces = None
    if reader.u8():
        rows, trace_ids, span_ids = (_decode_column(reader, "<i8") for _ in range(3))
        if not len(rows) == len(trace_ids) == len(span_ids):
            raise FrameError("trace columns differ in length")
        if len(rows) and not (  # ascending and inside the train, for to_tuples()
            0 <= rows[0] and rows[-1] < len(timestamps) and (rows[1:] > rows[:-1]).all()
        ):
            raise FrameError("trace entry outside the train or out of order")
        traces = TraceColumn(rows, trace_ids, span_ids)
    for column in columns.values():
        if len(column) != len(timestamps):
            raise FrameError("columns differ in length")
    return ColumnarTrain(fields, columns, timestamps, traces=traces), ragged


# -- public frame API ---------------------------------------------------------

Train = Union[list[StreamTuple], ColumnarTrain]


def encode_control(payload: dict) -> bytes:
    """Frame one control message (handshake, fence, stats, ...)."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return bytes([MAGIC, VERSION, KIND_CONTROL]) + body.encode("utf-8")


def encode_data(route: str, train: Train) -> bytes:
    """Frame one tuple train for ``route`` (an arc id or ``out:<stream>``).

    Either representation is framed row-free, as one column body; the
    frame kind records which one it was, and the decoder returns the
    same representation it was handed.
    """
    kind, body = KIND_COLUMNAR, train
    if not isinstance(train, ColumnarTrain):
        kind, body = KIND_ROWS, ColumnarTrain.from_tuples(train)
    ragged = body is None
    if ragged:  # key sets differ, or there are no rows: wrap each row's values
        make = StreamTuple.from_parts
        wrapped = [make({"": t.values}, t.timestamp, trace=t.trace) for t in train]
        body = ColumnarTrain.from_tuples(wrapped) or ColumnarTrain(
            ("",), {"": np.empty(0, dtype=object)}, np.empty(0)
        )
    out = bytearray([MAGIC, VERSION, kind])
    _encode_str(out, route)
    _encode_columnar(out, body, ragged)
    return bytes(out)


def decode_frame(frame: bytes) -> tuple[int, Any, Any]:
    """Parse any frame: ``(kind, route_or_None, payload)``.

    Control frames return ``(KIND_CONTROL, None, dict)``; data frames
    return ``(kind, route, train)`` with the train in its original
    representation.  Anything else is a :class:`FrameError`.
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
    if kind not in (KIND_CONTROL, KIND_ROWS, KIND_COLUMNAR):
        raise FrameError(f"unknown frame kind {kind}")
    try:
        if kind == KIND_CONTROL:
            payload = json.loads(frame[3:].decode("utf-8"))
            if not isinstance(payload, dict):
                raise FrameError("a control frame carries a JSON object")
            return KIND_CONTROL, None, payload
        reader = _Reader(frame, pos=3)
        route = reader.string()
        train, ragged = _decode_columnar(reader)
        if reader.pos != len(frame):
            raise FrameError("trailing bytes")
        if kind == KIND_COLUMNAR:
            if ragged:
                raise FrameError("a columnar train cannot be ragged")
            return kind, route, train
        rows = train.to_tuples()
        for tup in rows if ragged else ():  # fresh tuples: unwrap in place
            tup.values = tup.values[""]
            if not isinstance(tup.values, dict):
                raise FrameError("tuple values must decode to a dict")
        return kind, route, rows
    except FrameError:
        raise
    except (ValueError, TypeError, RecursionError) as exc:
        # Bad UTF-8 or JSON, a non-numeric bigint, an unhashable dict key, deep nesting.
        raise FrameError(f"malformed frame: {exc}") from None
