"""Columnar tuple trains: struct-of-arrays execution (ROADMAP item 1).

The batch path (``Operator.process_batch``) and superbox fusion
amortize *scheduling* and *dispatch*, but a train is still a
``list[StreamTuple]``, so every box pays one dict lookup and one
attribute chase per tuple.  This module adds the third-generation
representation (Fragkoulis et al.'s survey calls columnar/vectorized
execution the defining shift from second- to third-generation stream
processors): a :class:`ColumnarTrain` stores a train as one NumPy array
per schema field plus metadata columns (``timestamps`` and a sparse
``traces`` column), and the declarative operator constructors compile
to :class:`ColumnExpr` column expressions so a fused run of N boxes
executes as N masked array operations with zero per-tuple Python.

Materialization back to ``list[StreamTuple]`` is *lazy* and happens
only at barriers:

========================  =====================================================
barrier                   where the train is materialized
========================  =====================================================
join / opaque stateful    engine claim (``Join``, ``XSection``, user operators)
opaque operator           engine claim (plain-lambda Filter/Map/CaseFilter)
connection point          emit (history recording is per-tuple)
fan-out of sampled rows   emit (a traced tuple shared by several arcs)
fan-in with mixed queues  claim (plain tuples and segments interleaved)
application outputs       lazily, on first read of the output buffer
========================  =====================================================

Windowed boxes (``Tumble``, ``Slide``, ``WSort``) are *not* barriers:
they ship ``process_columnar`` window kernels (run-boundary masks,
grouped segment reductions via :mod:`repro.core.aggregates` segment
kernels).  The kernel contract is *exact or decline*: a claim a kernel
cannot run exactly (for ``Slide`` ungroupable keys or a sampled row —
``Tumble`` hands each closed window the trace of its first row and
declines nothing; for ``WSort`` anything outside pure buffering) it
declines with ``None`` before touching state, and the engine's claim
barrier above materializes it.

Neither a tracer nor a load shedder is a barrier: admission is one
keep-mask per train, and trace context rides the train as a
:class:`~repro.obs.trace.TraceColumn` that each box re-stamps for the
sampled rows only.

Expression semantics: a :class:`ColumnExpr` is *callable on a single
tuple* (the scalar path evaluates it exactly like the closure it
replaces) and *evaluable on a train* (the columnar path applies the
same operator over whole columns).  Integer columns use ``int64`` —
values outside its range fall back to object dtype (exact Python
arithmetic); overflow *produced* by compiled arithmetic on in-range
inputs wraps like NumPy, which is the one documented divergence from
the scalar path.  ``&`` / ``|`` / ``~`` are logical (a ``bool``) and
bools do arithmetic as ints on both paths; a zero divisor anywhere in a
column raises ``ZeroDivisionError`` for the train, so compiled
``CaseFilter`` predicates must be total (every predicate is evaluated
on every tuple; there is no cross-predicate short-circuit guard).
"""

from __future__ import annotations

import operator as _operator
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.tuples import StreamTuple
from repro.obs.trace import TraceColumn


# -- column encoding ----------------------------------------------------------

_FAST_KINDS = frozenset("ifb")  # int64 / float64 / bool_ vectorize natively


def column_value(col: np.ndarray, i: int) -> Any:
    """One column element as the Python value ``tolist()`` would yield."""
    v = col[i]
    return v.item() if col.dtype.kind != "O" else v


def as_column(values: Sequence[Any]) -> np.ndarray:
    """Encode one field's values as a column array.

    Uniform ints/floats/bools get native dtypes (vectorized kernels run
    in C); anything else — strings, Nones, mixed or oversized values —
    gets an object column, on which NumPy applies the *Python* operators
    elementwise, keeping scalar semantics exact at reduced speed.
    """
    try:
        arr = np.asarray(values)
    except (ValueError, OverflowError):
        arr = None
    if arr is not None and arr.dtype.kind in _FAST_KINDS and arr.ndim == 1:
        if len(values) == 0:
            return arr
        # Native dtypes only for *uniform* Python types: numpy would
        # happily promote [1, 2.5] to float64 (or [1, True] to int64),
        # and materialization must hand back the exact objects that
        # went in — 1, not 1.0.  Ints that straddle the int64 range
        # ([2**63, -1]) are uniform and still promote to float64.
        t = type(values[0])
        if all(type(v) is t for v in values) and not (
            t is int and arr.dtype.kind == "f"
        ):
            return arr
    boxed = np.empty(len(values), dtype=object)
    boxed[:] = values
    return boxed


class ColumnarTrain:
    """One tuple train as a struct of arrays.

    Attributes:
        fields: schema field names, in materialization order.
        columns: field name -> column array (all the same length).
        timestamps: float64 source-timestamp column.
        traces: the trace contexts of the sampled rows, as a
            :class:`~repro.obs.trace.TraceColumn`; None when no row is
            sampled (the common case: every untraced engine, and most
            trains once a filter has dropped the sampled rows).
        enqueue_clocks: engine-internal enqueue-time column, set when
            the train is queued on an arc; mirrors ``Arc.queue_times``.

    Trains are immutable by convention: operators build new trains
    (sharing untouched column arrays) rather than mutating, exactly as
    operators ``derive()`` new tuples on the list path.
    """

    __slots__ = ("fields", "columns", "timestamps", "traces", "enqueue_clocks", "_tuples")

    def __init__(
        self,
        fields: tuple[str, ...],
        columns: dict[str, np.ndarray],
        timestamps: np.ndarray,
        traces: TraceColumn | None = None,
    ):
        self.fields = fields
        self.columns = columns
        self.timestamps = timestamps
        self.traces = traces
        self.enqueue_clocks: np.ndarray | None = None
        self._tuples: list[StreamTuple] | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_tuples(cls, tuples: Sequence[StreamTuple]) -> "ColumnarTrain | None":
        """Encode a homogeneous train; None if the train is ragged.

        A train is encodable when every tuple carries the same field
        set.  Ragged trains (schema drift mid-train) stay on the list
        path — the caller treats None as "not columnarizable".
        """
        if not tuples:
            return None
        first = tuples[0]
        fields = tuple(first.values)
        keys = first.values.keys()
        if any(t.values.keys() != keys for t in tuples):
            return None
        columns = {f: as_column([t.values[f] for t in tuples]) for f in fields}
        timestamps = np.asarray([t.timestamp for t in tuples], dtype=np.float64)
        traced = [i for i, t in enumerate(tuples) if t.trace is not None]
        traces = TraceColumn.of_contexts(
            traced, [tuples[i].trace for i in traced]
        ) if traced else None
        return cls(fields, columns, timestamps, traces=traces)

    # -- shape -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.timestamps)

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def __repr__(self) -> str:
        return (
            f"ColumnarTrain({len(self)} tuples, "
            f"fields={list(self.fields)})"
        )

    # -- train algebra (used by vectorized kernels and the engine) ---------

    def requeue_view(self) -> "ColumnarTrain":
        """A shallow twin sharing every column and the row cache.

        Enqueue clocks are per-queue-entry state, not train state: when
        one train object must be queued a second time (a fan-out arc, or
        a filter passing a whole train through unchanged), the new queue
        entry gets a twin so its stamp cannot clobber the clocks another
        arc's entry still depends on.
        """
        out = ColumnarTrain(self.fields, self.columns, self.timestamps, traces=self.traces)
        out._tuples = self._tuples
        return out

    def with_traces(self, traces: TraceColumn | None) -> "ColumnarTrain":
        """A shallow twin carrying ``traces`` instead of this train's.

        How a hop re-stamps a train: the columns are shared, the row
        cache is not (materialized rows have their context baked in).
        """
        return ColumnarTrain(self.fields, self.columns, self.timestamps, traces=traces)

    def select(self, mask: np.ndarray) -> "ColumnarTrain":
        """The sub-train of rows where ``mask`` is True (row order kept)."""
        columns = {f: arr[mask] for f, arr in self.columns.items()}
        return ColumnarTrain(
            self.fields, columns, self.timestamps[mask],
            traces=self.traces.select(mask) if self.traces is not None else None,
        )

    def slice(self, start: int, stop: int) -> "ColumnarTrain":
        """Row range [start, stop) as a train of array views (no copies)."""
        columns = {f: arr[start:stop] for f, arr in self.columns.items()}
        out = ColumnarTrain(
            self.fields, columns, self.timestamps[start:stop],
            traces=self.traces.slice(start, stop) if self.traces is not None else None,
        )
        if self.enqueue_clocks is not None:
            out.enqueue_clocks = self.enqueue_clocks[start:stop]
        return out

    def split(self, n: int) -> tuple["ColumnarTrain", "ColumnarTrain"]:
        """(first n rows, the rest) — engine train-budget boundaries."""
        return self.slice(0, n), self.slice(n, len(self))

    @staticmethod
    def concat(trains: "Sequence[ColumnarTrain]") -> "ColumnarTrain":
        """Concatenate trains with identical field sets, in order."""
        if len(trains) == 1:
            return trains[0]
        head = trains[0]
        fields = head.fields
        columns = {
            f: np.concatenate([t.columns[f] for t in trains]) for f in fields
        }
        timestamps = np.concatenate([t.timestamps for t in trains])
        pieces = []
        offset = 0
        for t in trains:
            if t.traces is not None:
                pieces.append((t.traces, offset))
            offset += len(t)
        return ColumnarTrain(fields, columns, timestamps,
                             traces=TraceColumn.concat(pieces) if pieces else None)

    def with_columns(
        self, fields: tuple[str, ...], columns: dict[str, np.ndarray]
    ) -> "ColumnarTrain":
        """A same-length train with replaced value columns (Map output).

        Metadata (timestamps, traces) is inherited — the columnar
        analogue of :meth:`StreamTuple.derive`.
        """
        return ColumnarTrain(fields, columns, self.timestamps, traces=self.traces)

    # -- materialization ---------------------------------------------------

    def to_tuples(self) -> list[StreamTuple]:
        """Materialize the train as ``StreamTuple`` objects (cached).

        ``tolist()`` converts columns to pure Python scalars, so
        materialized tuples compare equal to (and hash like) the tuples
        the list path would have produced.
        """
        if self._tuples is None:
            fields = self.fields
            cols = [self.columns[f].tolist() for f in fields]
            timestamps = self.timestamps.tolist()
            traces = {} if self.traces is None else dict(
                zip(self.traces.rows.tolist(), self.traces.contexts())
            )
            make = StreamTuple.from_parts
            self._tuples = [
                make(dict(zip(fields, row)), timestamps[i], trace=traces.get(i))
                for i, row in enumerate(zip(*cols))
            ] if fields else [
                make({}, timestamps[i], trace=traces.get(i))
                for i in range(len(timestamps))
            ]
        return self._tuples

    def tuple_at(self, index: int) -> StreamTuple:
        """Materialize a single row (window kernels keep one open tuple).

        Produces exactly the tuple ``to_tuples()[index]`` would, without
        materializing the rest of the train; uses the cache when present.
        """
        if self._tuples is not None:
            return self._tuples[index]
        values = {}
        for f in self.fields:
            col = self.columns[f]
            v = col[index]
            values[f] = v.item() if col.dtype.kind != "O" else v
        return StreamTuple.from_parts(
            values, float(self.timestamps[index]),
            trace=self.traces.context_at(index) if self.traces is not None else None,
        )

    def __iter__(self) -> Iterator[StreamTuple]:
        return iter(self.to_tuples())


# -- the compiled expression language ----------------------------------------

_SCALAR_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": _operator.add, "-": _operator.sub, "*": _operator.mul,
    "/": _operator.truediv, "//": _operator.floordiv, "%": _operator.mod,
    "<": _operator.lt, "<=": _operator.le, ">": _operator.gt,
    ">=": _operator.ge, "==": _operator.eq, "!=": _operator.ne,
    "&": lambda a, b: bool(a) and bool(b), "|": lambda a, b: bool(a) or bool(b),
}


def _number(value: Any) -> Any:
    """Bools do arithmetic as the ints they are in Python (``True + True == 2``)."""
    if isinstance(value, np.ndarray):
        return value.astype(np.int64) if value.dtype == np.bool_ else value
    return int(value) if isinstance(value, bool) else value


def _arithmetic(ufunc: Callable[[Any, Any], Any], divides: bool = False):
    def apply(left: Any, right: Any) -> Any:
        if divides:  # NumPy yields inf/nan/0 with a warning; a row raises
            zero = right == 0
            if zero.any() if isinstance(zero, np.ndarray) else zero:
                raise ZeroDivisionError("division by zero in a column expression")
        return ufunc(_number(left), _number(right))

    return apply


_VECTOR_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": _arithmetic(np.add), "-": _arithmetic(np.subtract),
    "*": _arithmetic(np.multiply), "/": _arithmetic(np.true_divide, True),
    "//": _arithmetic(np.floor_divide, True), "%": _arithmetic(np.mod, True),
    "<": np.less, "<=": np.less_equal, ">": np.greater,
    ">=": np.greater_equal, "==": np.equal, "!=": np.not_equal,
    # astype: on object columns logical_and/or hand back the operands.
    "&": lambda a, b: np.logical_and(a, b).astype(bool, copy=False),
    "|": lambda a, b: np.logical_or(a, b).astype(bool, copy=False),
}


class ColumnExpr:
    """A compiled column expression.

    Dual-personality: calling an expression with one tuple (or values
    mapping) evaluates it scalar-wise with Python operators — so an
    expression *is* a valid Filter predicate / Map input — while
    :meth:`evaluate` applies the same operator tree to whole columns.
    Build with :func:`col` and :func:`lit` plus ordinary operators;
    use ``&``/``|``/``~`` for boolean logic.
    """

    __slots__ = ()

    def __call__(self, tup: Any) -> Any:
        raise NotImplementedError

    def evaluate(self, train: ColumnarTrain) -> Any:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def mask(self, train: ColumnarTrain) -> np.ndarray:
        """Evaluate as a boolean row mask (predicates)."""
        result = self.evaluate(train)
        if isinstance(result, np.ndarray):
            if result.dtype == np.bool_:
                return result
            return result.astype(bool)
        return np.full(len(train), bool(result))

    # operator sugar ------------------------------------------------------

    def _bin(self, op: str, other: Any, reflected: bool = False) -> "ColumnExpr":
        other_expr = other if isinstance(other, ColumnExpr) else Const(other)
        if reflected:
            return BinOp(op, other_expr, self)
        return BinOp(op, self, other_expr)

    def __add__(self, other): return self._bin("+", other)
    def __radd__(self, other): return self._bin("+", other, True)
    def __sub__(self, other): return self._bin("-", other)
    def __rsub__(self, other): return self._bin("-", other, True)
    def __mul__(self, other): return self._bin("*", other)
    def __rmul__(self, other): return self._bin("*", other, True)
    def __truediv__(self, other): return self._bin("/", other)
    def __rtruediv__(self, other): return self._bin("/", other, True)
    def __floordiv__(self, other): return self._bin("//", other)
    def __rfloordiv__(self, other): return self._bin("//", other, True)
    def __mod__(self, other): return self._bin("%", other)
    def __rmod__(self, other): return self._bin("%", other, True)
    def __lt__(self, other): return self._bin("<", other)
    def __le__(self, other): return self._bin("<=", other)
    def __gt__(self, other): return self._bin(">", other)
    def __ge__(self, other): return self._bin(">=", other)
    def __eq__(self, other): return self._bin("==", other)  # type: ignore[override]
    def __ne__(self, other): return self._bin("!=", other)  # type: ignore[override]
    def __and__(self, other): return self._bin("&", other)
    def __rand__(self, other): return self._bin("&", other, True)
    def __or__(self, other): return self._bin("|", other)
    def __ror__(self, other): return self._bin("|", other, True)
    def __invert__(self): return Not(self)
    def __neg__(self): return BinOp("-", Const(0), self)
    __hash__ = None  # type: ignore[assignment]  # == builds expressions

    def __repr__(self) -> str:
        return f"<expr {self.describe()}>"


class Field(ColumnExpr):
    """A schema field reference: ``col("A")``."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __call__(self, tup: Any) -> Any:
        return tup[self.name]

    def evaluate(self, train: ColumnarTrain) -> np.ndarray:
        return train.columns[self.name]

    def describe(self) -> str:
        return self.name


class Const(ColumnExpr):
    """A literal constant: ``lit(3)`` (or bare Python values in BinOps)."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __call__(self, tup: Any) -> Any:
        return self.value

    def evaluate(self, train: ColumnarTrain) -> Any:
        return self.value

    def describe(self) -> str:
        return repr(self.value)


class BinOp(ColumnExpr):
    """A binary operation over two sub-expressions."""

    __slots__ = ("op", "left", "right", "_scalar", "_vector")

    def __init__(self, op: str, left: ColumnExpr, right: ColumnExpr):
        if op not in _SCALAR_OPS:
            raise ValueError(f"unsupported operator {op!r}")
        self.op = op
        self.left = left
        self.right = right
        self._scalar = _SCALAR_OPS[op]
        self._vector = _VECTOR_OPS[op]

    def __call__(self, tup: Any) -> Any:
        return self._scalar(self.left(tup), self.right(tup))

    def evaluate(self, train: ColumnarTrain) -> Any:
        return self._vector(self.left.evaluate(train), self.right.evaluate(train))

    def describe(self) -> str:
        return f"({self.left.describe()} {self.op} {self.right.describe()})"


class Not(ColumnExpr):
    """Boolean negation (``~expr``)."""

    __slots__ = ("inner",)

    def __init__(self, inner: ColumnExpr):
        self.inner = inner

    def __call__(self, tup: Any) -> Any:
        return not self.inner(tup)

    def evaluate(self, train: ColumnarTrain) -> Any:
        return np.logical_not(self.inner.evaluate(train))

    def describe(self) -> str:
        return f"(not {self.inner.describe()})"


def col(name: str) -> Field:
    """A field-reference expression (the usual expression entry point)."""
    return Field(name)


def lit(value: Any) -> Const:
    """A literal-constant expression."""
    return Const(value)


# -- compiled Map specifications ---------------------------------------------


class MapSpec:
    """A compiled Map body: output field -> expression.

    Calling the spec with a values mapping evaluates every output
    expression scalar-wise (so ``Map(MapSpec(...))`` is semantically a
    plain Map); :meth:`evaluate` builds whole output columns.
    """

    __slots__ = ("outputs", "fields")

    def __init__(self, outputs: Mapping[str, ColumnExpr | Any]):
        if not outputs:
            raise ValueError("a MapSpec needs at least one output field")
        self.outputs: dict[str, ColumnExpr] = {
            name: expr if isinstance(expr, ColumnExpr) else Const(expr)
            for name, expr in outputs.items()
        }
        self.fields = tuple(self.outputs)

    def __call__(self, values: Mapping[str, Any]) -> dict[str, Any]:
        return {name: expr(values) for name, expr in self.outputs.items()}

    def evaluate(self, train: ColumnarTrain) -> ColumnarTrain:
        n = len(train)
        columns: dict[str, np.ndarray] = {}
        for name, expr in self.outputs.items():
            value = expr.evaluate(train)
            if not isinstance(value, np.ndarray):
                value = np.full(n, value)
            columns[name] = value
        return train.with_columns(self.fields, columns)

    def describe(self) -> str:
        inner = ", ".join(
            f"{name}={expr.describe()}" for name, expr in self.outputs.items()
        )
        return f"{{{inner}}}"

    __name__ = property(describe)  # type: ignore[assignment]


class ExtendSpec:
    """A compiled 'add one computed field' Map body (schema-agnostic)."""

    __slots__ = ("field", "expr")

    def __init__(self, field: str, expr: ColumnExpr):
        self.field = field
        self.expr = expr

    def __call__(self, values: Mapping[str, Any]) -> dict[str, Any]:
        out = dict(values)
        out[self.field] = self.expr(values)
        return out

    def evaluate(self, train: ColumnarTrain) -> ColumnarTrain:
        columns = dict(train.columns)
        value = self.expr.evaluate(train)
        if not isinstance(value, np.ndarray):
            value = np.full(len(train), value)
        columns[self.field] = value
        fields = train.fields if self.field in train.columns else (
            train.fields + (self.field,)
        )
        return train.with_columns(fields, columns)

    def describe(self) -> str:
        return f"extend({self.field}={self.expr.describe()})"

    __name__ = property(describe)  # type: ignore[assignment]


# -- lazily materialized output buffers --------------------------------------


class OutputBuffer:
    """A list-like delivered-stream buffer holding columnar segments.

    The engine appends whole :class:`ColumnarTrain` segments on the
    columnar delivery path; any *read* access (iteration, indexing,
    equality) materializes pending segments in delivery order first, so
    applications keep seeing ``list[StreamTuple]`` semantics while the
    hot loop never pays per-tuple object construction.  ``len()`` is
    segment-aware without materializing.
    """

    __slots__ = ("_tuples", "_pending")

    def __init__(self):
        self._tuples: list[StreamTuple] = []
        self._pending: list[ColumnarTrain] = []

    # engine-facing writers ----------------------------------------------

    def extend_train(self, train: ColumnarTrain) -> None:
        """Deliver a whole columnar segment (materialized on first read)."""
        self._pending.append(train)

    def take_segments(self) -> "list[list[StreamTuple] | ColumnarTrain]":
        """Hand out everything delivered, in delivery order, and clear.

        The materialized rows (if any) come first as one list — a row
        write flushes what was pending before it — then each pending
        columnar segment, unmaterialized: how a plane forwards a stream
        without paying for the rows.
        """
        segments = [self._tuples] if self._tuples else []
        segments += self._pending
        self._tuples, self._pending = [], []
        return segments

    # list protocol -------------------------------------------------------

    def _flush(self) -> list[StreamTuple]:
        if self._pending:
            for train in self._pending:
                self._tuples.extend(train.to_tuples())
            self._pending.clear()
        return self._tuples

    def append(self, tup: StreamTuple) -> None:
        self._flush().append(tup)

    def extend(self, tuples: Sequence[StreamTuple]) -> None:
        self._flush().extend(tuples)

    def clear(self) -> None:
        self._tuples.clear()
        self._pending.clear()

    def __len__(self) -> int:
        return len(self._tuples) + sum(len(t) for t in self._pending)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self) -> Iterator[StreamTuple]:
        return iter(self._flush())

    def __getitem__(self, index):
        return self._flush()[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, OutputBuffer):
            return self._flush() == other._flush()
        if isinstance(other, list):
            return self._flush() == other
        return NotImplemented

    def __contains__(self, item: object) -> bool:
        return item in self._flush()

    def index(self, item: StreamTuple) -> int:
        return self._flush().index(item)

    def count(self, item: StreamTuple) -> int:
        return self._flush().count(item)

    def __repr__(self) -> str:
        pending = sum(len(t) for t in self._pending)
        return (
            f"OutputBuffer({len(self._tuples)} materialized"
            + (f", {pending} pending columnar" if pending else "")
            + ")"
        )


# -- exact sequential accounting helpers --------------------------------------
#
# The engine's accounting contract is *bit-identical* virtual clocks and
# latency sums between the list and columnar paths.  ``ufunc.accumulate``
# applies its operation strictly sequentially (unlike ``np.sum``'s
# pairwise reduction), so these helpers produce exactly the float chain
# the per-tuple Python loops produce — same operations, same order.


def accumulate_chain(start: float, increments: np.ndarray) -> np.ndarray:
    """The running values of ``x += inc`` for each increment.

    Returns an array of len(increments) where element i is the value of
    ``x`` after the (i+1)-th addition, starting from ``start`` —
    bit-identical to the sequential Python loop.
    """
    chain = np.empty(len(increments) + 1, dtype=np.float64)
    chain[0] = start
    chain[1:] = increments
    np.add.accumulate(chain, out=chain)
    return chain[1:]


def sequential_sum(values: np.ndarray) -> float:
    """``total = 0.0; for v in values: total += v`` — exactly.

    The leading ``0.0 + v[0]`` of the Python loop is dropped: IEEE-754
    addition of +0.0 is the identity for every float except -0.0 (where
    it only normalizes the sign of zero), so the fold starting at
    ``v[0]`` produces the same value.
    """
    if len(values) == 0:
        return 0.0
    return float(np.add.accumulate(values)[-1])


def running_max(start: float, values: np.ndarray) -> np.ndarray:
    """The running values of ``x = max(x, v)`` — exact (pure selection)."""
    return np.maximum.accumulate(np.maximum(values, start))


# -- window-kernel helpers ----------------------------------------------------


def group_rows(
    columns: Sequence[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Stable grouping of row indices by key columns.

    Returns ``(order, starts, ends)``: ``order`` is a stable permutation
    putting equal keys adjacent (arrival order preserved within a
    group), and group k covers ``order[starts[k]:ends[k]]``.  Returns
    None when the columns cannot be grouped vectorized — a single
    object column with unsortable values, or multi-column keys with any
    object column — in which case the caller falls back to the exact
    dict-keyed path.

    Grouping equality follows NumPy value comparison, which matches
    Python dict-key semantics for the supported dtypes (``1 == True ==
    1.0`` collapse the same way in both worlds).
    """
    n = len(columns[0])
    if len(columns) == 1:
        try:
            _, inverse = np.unique(columns[0], return_inverse=True)
        except TypeError:
            return None
    else:
        if any(c.dtype.kind == "O" for c in columns):
            return None
        stacked = np.stack(columns, axis=1)
        _, inverse = np.unique(stacked, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    order = np.argsort(inverse, kind="stable")
    sorted_inv = inverse[order]
    bounds = np.flatnonzero(sorted_inv[1:] != sorted_inv[:-1]) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [n]))
    return order, starts, ends
