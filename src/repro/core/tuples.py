"""Stream data model: schemas and tuples (paper Section 2.1).

A *data stream* is a potentially unbounded sequence of tuples generated
in real time by a data source.  Unlike relational tuples, stream tuples
carry arrival metadata: a source timestamp (used for latency-based QoS)
and, for sampled tuples, a trace context.  Section 6.2's per-server
sequence numbers live on :class:`repro.ha.chain.HATuple`, in the recovery layer.
"""

from __future__ import annotations

import operator as _operator
from typing import Any, Callable, Iterator, Mapping


class SchemaError(ValueError):
    """Raised when a tuple does not conform to its stream's schema."""


class Schema:
    """An ordered set of named fields, optionally typed.

    ``Schema("A", "B")`` declares two untyped fields; passing
    ``types={"A": int}`` additionally enforces ``isinstance`` checks in
    :meth:`validate`.
    """

    __slots__ = ("fields", "types", "_field_set")

    def __init__(self, *fields: str, types: Mapping[str, type] | None = None):
        if len(set(fields)) != len(fields):
            raise SchemaError(f"duplicate field names in schema: {fields}")
        self.fields: tuple[str, ...] = fields
        # Validation runs once per tuple; build the field set once here
        # instead of per call.
        self._field_set: frozenset[str] = frozenset(fields)
        self.types: dict[str, type] = dict(types or {})
        unknown = set(self.types) - self._field_set
        if unknown:
            raise SchemaError(f"types given for unknown fields: {sorted(unknown)}")

    def validate(self, values: Mapping[str, Any]) -> None:
        """Raise :class:`SchemaError` unless ``values`` matches this schema."""
        if values.keys() != self._field_set:
            raise SchemaError(
                f"tuple fields {sorted(values)} do not match schema {sorted(self.fields)}"
            )
        for name, expected in self.types.items():
            if not isinstance(values[name], expected):
                raise SchemaError(
                    f"field {name!r}: expected {expected.__name__}, "
                    f"got {type(values[name]).__name__}"
                )

    def project(self, *fields: str) -> "Schema":
        """A new schema keeping only ``fields`` (order as given)."""
        missing = set(fields) - self._field_set
        if missing:
            raise SchemaError(f"cannot project unknown fields: {sorted(missing)}")
        return Schema(*fields, types={f: self.types[f] for f in fields if f in self.types})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.fields == other.fields and self.types == other.types

    def __hash__(self) -> int:
        return hash(self.fields)

    def __contains__(self, field: str) -> bool:
        return field in self._field_set

    def __iter__(self) -> Iterator[str]:
        return iter(self.fields)

    def __repr__(self) -> str:
        return f"Schema({', '.join(self.fields)})"


class StreamTuple:
    """One tuple on a data stream.

    Attributes:
        values: mapping of field name to value.  Treated as immutable by
            convention; operators build new tuples rather than mutating.
        timestamp: virtual time at which the tuple entered the system
            (drives latency-based QoS, Section 7.1).
        trace: observability trace context (:mod:`repro.obs.trace`) for
            sampled tuples; None (the overwhelmingly common case) for
            unsampled ones.
    """

    __slots__ = ("values", "timestamp", "trace")

    def __init__(
        self, values: Mapping[str, Any], timestamp: float = 0.0, trace: Any = None
    ):
        self.values = dict(values)
        self.timestamp = timestamp
        self.trace = trace

    @classmethod
    def from_parts(
        cls,
        values: dict[str, Any],
        timestamp: float,
        seq: None = None,
        origin: None = None,
        trace: Any = None,
    ) -> "StreamTuple":
        """Internal fast constructor: takes ownership of ``values``.

        Skips the defensive ``dict(values)`` copy in ``__init__``; used
        by bulk materialization (:mod:`repro.core.columnar`) where the
        dict is freshly built and never shared.  ``seq`` and ``origin``
        are ignored: ``benchmarks/e2e/workloads.py`` passes five
        positionals until ROADMAP item 1 drops the two slots.
        """
        tup = cls.__new__(cls)
        tup.values = values
        tup.timestamp = timestamp
        tup.trace = trace
        return tup

    def __getitem__(self, field: str) -> Any:
        return self.values[field]

    def get(self, field: str, default: Any = None) -> Any:
        return self.values.get(field, default)

    def derive(self, values: Mapping[str, Any]) -> "StreamTuple":
        """A new tuple with different values but inherited metadata.

        Operators use this so that latency (timestamp) and trace
        context propagate through the query network.
        """
        return StreamTuple(values, timestamp=self.timestamp, trace=self.trace)

    def with_metadata(self, timestamp: float | None = None) -> "StreamTuple":
        """A copy with a replaced timestamp (None keeps this tuple's)."""
        return StreamTuple(
            self.values,
            timestamp=self.timestamp if timestamp is None else timestamp,
            trace=self.trace,
        )

    def key(self, fields: tuple[str, ...]) -> tuple:
        """Projection of ``fields`` as a hashable tuple (groupby keys)."""
        if len(fields) == 1:
            return (self.values[fields[0]],)
        return tuple(self.values[f] for f in fields)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreamTuple):
            return NotImplemented
        return self.values == other.values

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.values.items())))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.values.items())
        return f"({inner})"


def key_getter(fields: tuple[str, ...]) -> Callable[[Mapping[str, Any]], tuple]:
    """A compiled groupby-key extractor over a tuple's ``values`` dict.

    Windowed operators call :meth:`StreamTuple.key` once per tuple; the
    per-call field-tuple iteration is measurable on the batch fast
    paths, so they bind one of these in ``__init__`` instead.
    """
    if len(fields) == 1:
        field = fields[0]

        def single(values: Mapping[str, Any]) -> tuple:
            return (values[field],)

        return single
    # itemgetter with 2+ fields already returns a tuple.
    return _operator.itemgetter(*fields)


def make_stream(rows: list[Mapping[str, Any]], start_time: float = 0.0, spacing: float = 1.0) -> list[StreamTuple]:
    """Build a list of tuples from plain dicts with evenly spaced timestamps.

    Convenience used heavily by tests and examples; e.g. the paper's
    Figure 2 sample stream is ``make_stream([{"A": 1, "B": 2}, ...])``.
    """
    return [
        StreamTuple(row, timestamp=start_time + i * spacing) for i, row in enumerate(rows)
    ]


FIGURE_2_STREAM = [
    {"A": 1, "B": 2},
    {"A": 1, "B": 3},
    {"A": 2, "B": 2},
    {"A": 2, "B": 1},
    {"A": 2, "B": 6},
    {"A": 4, "B": 5},
    {"A": 4, "B": 2},
]
"""The seven-tuple sample stream of the paper's Figure 2."""
