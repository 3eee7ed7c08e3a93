"""Distributed trace spans: end-to-end tuple lineage across nodes.

A sampled tuple carries a :class:`TraceContext` — ``(trace_id,
span_id)`` where ``span_id`` is the span under which the tuple was last
touched.  Every instrumented hop (engine box claim, overlay transport
frame, HA chain forwarding, Medusa bridge crossing) records a
:class:`Span` whose parent is the carried context and re-stamps the
tuple with a child context, so the :class:`SpanSink` can reconstruct
the tuple's full journey as a tree, across node and participant
boundaries.

Everything is deterministic: trace ids and span ids are sequential,
sampling is systematic (every ``1/rate``-th source tuple), and the span
tree serialization sorts children — so a seeded run produces a
byte-identical trace regardless of execution path (the scalar, batched
and columnar engines record identical spans).

The columnar engine moves tuples in struct-of-arrays trains, so the
same three things exist per *train*: a :class:`TraceColumn` is the
trace context of a train's sampled rows, :meth:`Tracer.start_train`
samples a whole train with the accumulator :meth:`Tracer.sample` uses,
and :meth:`SpanSink.record_block` takes one hop's spans for a whole
train as arrays — O(sampled rows) array work per box per train, with
:class:`Span` objects built only when somebody reads them.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any

import numpy as np


class TraceContext:
    """The trace coordinates carried on a tuple: which trace it belongs
    to and the span it was last touched under."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: int, span_id: int):
        self.trace_id = trace_id
        self.span_id = span_id

    def __repr__(self) -> str:
        return f"TraceContext(trace={self.trace_id}, span={self.span_id})"


class TraceColumn:
    """The :class:`TraceContext` of a columnar train's sampled rows.

    ``rows`` holds the sampled row positions, ascending; ``trace_ids``
    and ``span_ids`` are aligned with it.  Columns are immutable by
    convention: a hop re-stamps by building a :meth:`child` column, the
    way the row path assigns a fresh ``TraceContext`` to ``tup.trace``.

    A column encoded from tuples keeps their context *objects* and reads
    the ids off them only when a hop needs arrays, so a train survives
    the round trip through rows with whatever a caller put in
    ``tup.trace``.
    """

    __slots__ = ("rows", "_trace_ids", "_span_ids", "_contexts")

    def __init__(
        self,
        rows: np.ndarray,
        trace_ids: np.ndarray | None = None,
        span_ids: np.ndarray | None = None,
        contexts: np.ndarray | None = None,
    ):
        self.rows = rows
        self._trace_ids = trace_ids
        self._span_ids = span_ids
        self._contexts = contexts

    @classmethod
    def of_contexts(cls, rows: list[int], contexts: list[Any]) -> "TraceColumn":
        """The column of ``contexts`` carried by the tuples at ``rows``."""
        boxed = np.empty(len(contexts), dtype=object)
        boxed[:] = contexts
        return cls(np.asarray(rows, dtype=np.int64), contexts=boxed)

    def __len__(self) -> int:
        return len(self.rows)

    def _ids(self, attr: str) -> np.ndarray:
        return np.fromiter(
            (getattr(ctx, attr) for ctx in self._contexts), np.int64, len(self.rows)
        )

    @property
    def trace_ids(self) -> np.ndarray:
        if self._trace_ids is None:
            self._trace_ids = self._ids("trace_id")
        return self._trace_ids

    @property
    def span_ids(self) -> np.ndarray:
        if self._span_ids is None:
            self._span_ids = self._ids("span_id")
        return self._span_ids

    def contexts(self) -> list[Any]:
        """One context object per sampled row (row materialization)."""
        if self._contexts is not None:
            return self._contexts.tolist()
        return [
            TraceContext(trace_id, span_id)
            for trace_id, span_id in zip(
                self._trace_ids.tolist(), self._span_ids.tolist()
            )
        ]

    def context_at(self, row: int) -> Any:
        """The context carried by ``row``, or None if it is not sampled."""
        rows = self.rows
        i = int(np.searchsorted(rows, row))
        if i == len(rows) or rows[i] != row:
            return None
        if self._contexts is not None:
            return self._contexts[i]
        return TraceContext(int(self._trace_ids[i]), int(self._span_ids[i]))

    def child(self, span_ids: np.ndarray) -> "TraceColumn":
        """The same rows of the same traces, last touched under ``span_ids``."""
        return TraceColumn(self.rows, self.trace_ids, span_ids)

    def _take(self, entries: Any, rows: np.ndarray) -> "TraceColumn":
        out = TraceColumn(rows)
        if self._contexts is not None:
            out._contexts = self._contexts[entries]
        if self._trace_ids is not None:
            out._trace_ids = self._trace_ids[entries]
        if self._span_ids is not None:
            out._span_ids = self._span_ids[entries]
        return out

    def select(self, mask: np.ndarray) -> "TraceColumn | None":
        """The column of the sub-train ``mask`` keeps; None if no sampled
        row survives."""
        kept = mask[self.rows]
        rows = self.rows[kept]
        if not len(rows):
            return None
        # A kept row moves up by the number of dropped rows before it.
        return self._take(kept, np.add.accumulate(mask, dtype=np.intp)[rows] - 1)

    def slice(self, start: int, stop: int) -> "TraceColumn | None":
        """The column of train rows [start, stop)."""
        lo, hi = np.searchsorted(self.rows, (start, stop)).tolist()
        if lo == hi:
            return None
        return self._take(slice(lo, hi), self.rows[lo:hi] - start)

    def shifted(self, offset: int) -> "TraceColumn":
        """The same contexts with every row moved by ``offset``."""
        return self._take(slice(None), self.rows + offset)

    def at_rows(self, positions: np.ndarray) -> "TraceColumn | None":
        """The column of a train built from this train's rows at the
        ascending ``positions`` (entry j of the result sits at row j's
        source position); None if none of them is sampled."""
        rows = self.rows
        entries = np.minimum(np.searchsorted(rows, positions), len(rows) - 1)
        hit = rows[entries] == positions
        if not hit.any():
            return None
        return self._take(entries[hit], np.flatnonzero(hit))

    @staticmethod
    def concat(pieces: "list[tuple[TraceColumn, int]]") -> "TraceColumn":
        """Join ``(column, row offset)`` pieces of consecutive trains."""
        rows = np.concatenate([column.rows + offset for column, offset in pieces])
        if any(column._contexts is not None for column, _offset in pieces):
            contexts = [ctx for column, _offset in pieces for ctx in column.contexts()]
            return TraceColumn.of_contexts(rows.tolist(), contexts)
        return TraceColumn(
            rows,
            np.concatenate([column._trace_ids for column, _offset in pieces]),
            np.concatenate([column._span_ids for column, _offset in pieces]),
        )

    def __repr__(self) -> str:
        return f"TraceColumn({len(self.rows)} sampled rows)"


class Span:
    """One hop of one tuple's journey."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "node", "start", "end")

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        parent_id: int | None,
        name: str,
        node: str,
        start: float,
        end: float,
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.node = node
        self.start = start
        self.end = end

    def to_dict(self) -> dict:
        return {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "node": self.node,
            "start": self.start,
            "end": self.end,
        }

    def __repr__(self) -> str:
        return (
            f"Span(t{self.trace_id}/s{self.span_id}<-{self.parent_id}, "
            f"{self.name}@{self.node or '-'})"
        )


class SpanSink:
    """Collects finished spans and reconstructs per-tuple lineage trees.

    Spans arrive one at a time (:meth:`record`) or as one hop's block
    for a whole train (:meth:`record_block`).  Blocks are kept as the
    arrays they came in; the ``Span`` objects behind them are built when
    :attr:`spans` is first read.
    """

    def __init__(self) -> None:
        self._spans: list[Span] = []
        # Recorded since ``_spans`` was last brought up to date, in
        # record order: blocks as (first span id, trace ids, parent ids
        # or None, name, node, ends, duration), and the single spans
        # recorded between them (so one ``record`` does not force every
        # block before it into objects).
        self._blocks: list[tuple | Span] = []
        self._next_span_id = 0

    @property
    def spans(self) -> list[Span]:
        """Every recorded span, in record (= span id) order."""
        if self._blocks:
            spans = self._spans
            for block in self._blocks:
                if isinstance(block, Span):
                    spans.append(block)
                    continue
                first, trace_ids, parent_ids, name, node, ends, duration = block
                parents = (
                    repeat(None) if parent_ids is None else parent_ids.tolist()
                )
                spans.extend(
                    Span(trace_id, span_id, parent_id, name, node, end - duration, end)
                    for span_id, (trace_id, parent_id, end) in enumerate(
                        zip(trace_ids.tolist(), parents, ends.tolist()), first
                    )
                )
            self._blocks.clear()
        return self._spans

    def record(
        self,
        trace_id: int,
        parent_id: int | None,
        name: str,
        node: str = "",
        start: float = 0.0,
        end: float = 0.0,
    ) -> int:
        """Append one span; returns its assigned span id."""
        span_id = self._next_span_id
        self._next_span_id += 1
        span = Span(trace_id, span_id, parent_id, name, node, start, end)
        (self._blocks if self._blocks else self._spans).append(span)
        return span_id

    def record_block(
        self,
        trace_ids: np.ndarray,
        parent_ids: np.ndarray | None,
        name: str,
        node: str,
        ends: np.ndarray,
        duration: float = 0.0,
    ) -> np.ndarray:
        """Append one span per entry of the aligned arrays, all called
        ``name`` on ``node`` and all ``duration`` long (``parent_ids``
        None for root spans); returns their span ids.  Equivalent to
        calling :meth:`record` with ``start=end - duration`` entry by
        entry, in order."""
        count = len(trace_ids)
        first = self._next_span_id
        self._next_span_id = first + count
        self._blocks.append((first, trace_ids, parent_ids, name, node, ends, duration))
        return np.arange(first, first + count)

    # -- queries ---------------------------------------------------------------

    def trace_ids(self) -> list[int]:
        return sorted({span.trace_id for span in self.spans})

    def by_trace(self, trace_id: int) -> list[Span]:
        return [span for span in self.spans if span.trace_id == trace_id]

    def count(self, name_prefix: str = "") -> int:
        """Spans whose name starts with ``name_prefix`` (all if empty)."""
        if not name_prefix:
            return len(self.spans)
        return sum(1 for span in self.spans if span.name.startswith(name_prefix))

    def nodes_visited(self, trace_id: int) -> list[str]:
        """Distinct non-empty node names touched by one trace, sorted."""
        return sorted({s.node for s in self.by_trace(trace_id) if s.node})

    def tree(self, trace_id: int) -> list[dict]:
        """The trace's spans as nested dicts (roots at the top level).

        Children are sorted by (start, end, name) and span ids are
        *renumbered* in depth-first pre-order, so the rendering is
        deterministic and independent of record order — the scalar and
        batched engines record the same spans in different interleavings
        yet serialize to identical trees.
        """
        spans = self.by_trace(trace_id)
        children: dict[int | None, list[Span]] = {}
        ids = {span.span_id for span in spans}
        for span in spans:
            # A parent outside this trace's span set (should not happen)
            # degrades to a root rather than vanishing.
            parent = span.parent_id if span.parent_id in ids else None
            children.setdefault(parent, []).append(span)

        counter = [0]

        def build(span: Span, parent_norm: int | None) -> dict:
            node = span.to_dict()
            node["span"] = counter[0]
            node["parent"] = parent_norm
            my_id = counter[0]
            counter[0] += 1
            kids = children.get(span.span_id, [])
            kids.sort(key=lambda s: (s.start, s.end, s.name, s.span_id))
            node["children"] = [build(kid, my_id) for kid in kids]
            return node

        roots = children.get(None, [])
        roots.sort(key=lambda s: (s.start, s.end, s.name, s.span_id))
        return [build(root, None) for root in roots]

    def tree_text(self, trace_id: int) -> str:
        """A deterministic indented rendering of one trace tree."""
        lines: list[str] = []

        def walk(node: dict, depth: int) -> None:
            lines.append(
                f"{'  ' * depth}{node['name']} "
                f"[{node['node'] or '-'}] "
                f"{node['start']:.6f}..{node['end']:.6f}"
            )
            for child in node["children"]:
                walk(child, depth + 1)

        for root in self.tree(trace_id):
            walk(root, 0)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """All traces as {trace_id: tree} (JSON-able, deterministic)."""
        return {str(tid): self.tree(tid) for tid in self.trace_ids()}

    def __len__(self) -> int:
        return self._next_span_id  # ids are sequential; builds no Span

    def __repr__(self) -> str:
        return f"SpanSink({len(self)} spans, {len(self.trace_ids())} traces)"


class Tracer:
    """Sampling decisions plus span recording against one sink.

    Args:
        sink: where spans land; a fresh private sink if omitted.
        sample_rate: fraction of source tuples that start a trace
            (0.0 disables tracing entirely; 1.0 traces every tuple).
            Sampling is *systematic* — the accumulator admits every
            ``1/rate``-th offer — so it is deterministic and identical
            across scalar and batched execution of the same workload.
    """

    def __init__(self, sink: SpanSink | None = None, sample_rate: float = 0.0):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        self.sink = sink if sink is not None else SpanSink()
        self.sample_rate = sample_rate
        self._accumulator = 0.0
        self._next_trace_id = 0
        self.traces_started = 0
        self.offers = 0

    @property
    def active(self) -> bool:
        """True when sampling can admit tuples (the hot-path gate)."""
        return self.sample_rate > 0.0

    def sample(self) -> int | None:
        """Offer one source tuple; returns a new trace id if admitted."""
        self.offers += 1
        if self.sample_rate <= 0.0:
            return None
        self._accumulator += self.sample_rate
        if self._accumulator < 1.0:
            return None
        self._accumulator -= 1.0
        trace_id = self._next_trace_id
        self._next_trace_id += 1
        self.traces_started += 1
        return trace_id

    def sample_train(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Offer ``n`` source tuples at once.

        Returns the admitted positions and their new trace ids — what
        ``n`` calls of :meth:`sample` would admit, from the same
        accumulator (the same float additions in the same order, so
        per-tuple and per-train offers interleave freely).
        """
        self.offers += n
        rate = self.sample_rate
        admitted: list[int] = []
        if rate > 0.0:
            accumulator = self._accumulator
            for position in range(n):
                accumulator += rate
                if accumulator >= 1.0:
                    accumulator -= 1.0
                    admitted.append(position)
            self._accumulator = accumulator
        first = self._next_trace_id
        self._next_trace_id = first + len(admitted)
        self.traces_started += len(admitted)
        return (
            np.asarray(admitted, dtype=np.int64),
            np.arange(first, first + len(admitted)),
        )

    def start_train(
        self, name: str, timestamps: np.ndarray, node: str = ""
    ) -> TraceColumn | None:
        """Whole-train :meth:`start_trace`: sample one source train,
        record the admitted rows' root spans at their timestamps, and
        return the column to stamp on the train (None if no row was
        admitted)."""
        rows, trace_ids = self.sample_train(len(timestamps))
        if not len(rows):
            return None
        span_ids = self.sink.record_block(
            trace_ids, None, name, node, timestamps[rows]
        )
        return TraceColumn(rows, trace_ids, span_ids)

    def span_block(
        self,
        column: TraceColumn,
        name: str,
        ends: np.ndarray,
        duration: float,
        node: str = "",
    ) -> TraceColumn:
        """Whole-train :meth:`span`: one hop, ``duration`` long, under
        every context of ``column``; returns the child column."""
        return column.child(
            self.sink.record_block(
                column.trace_ids, column.span_ids, name, node, ends, duration
            )
        )

    def event_block(self, column: TraceColumn, name: str, at: np.ndarray) -> None:
        """Whole-train :meth:`event`: one leaf span under every context."""
        self.sink.record_block(column.trace_ids, column.span_ids, name, "", at)

    def start_trace(
        self, name: str, node: str = "", at: float = 0.0
    ) -> TraceContext | None:
        """Sample one source tuple; on admission, record the root span
        and return the context to stamp on the tuple."""
        trace_id = self.sample()
        if trace_id is None:
            return None
        span_id = self.sink.record(trace_id, None, name, node, at, at)
        return TraceContext(trace_id, span_id)

    def span(
        self,
        ctx: TraceContext,
        name: str,
        node: str = "",
        start: float = 0.0,
        end: float = 0.0,
    ) -> TraceContext:
        """Record one hop under ``ctx``; returns the child context."""
        span_id = self.sink.record(ctx.trace_id, ctx.span_id, name, node, start, end)
        return TraceContext(ctx.trace_id, span_id)

    def event(
        self,
        ctx: TraceContext,
        name: str,
        node: str = "",
        at: float = 0.0,
    ) -> None:
        """Record a leaf span (no children expected) under ``ctx``."""
        self.sink.record(ctx.trace_id, ctx.span_id, name, node, at, at)

    def __repr__(self) -> str:
        return (
            f"Tracer(rate={self.sample_rate:g}, "
            f"{self.traces_started}/{self.offers} sampled)"
        )
