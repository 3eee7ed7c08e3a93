"""Tumble: aggregation over disjoint windows (Section 2.2, Figure 2).

"Tumble takes an input aggregate function and a set of input groupby
attributes.  The aggregate function is applied to disjoint windows
(i.e., tuple subsequences) over the input stream.  The groupby
attributes are used to map tuples to the windows they belong to."

The paper's Figure 2 example fixes the window semantics we implement by
default (``mode="run"``): a window is a maximal *run* of tuples sharing
the same groupby key, and the window's aggregate is emitted upon arrival
of the first tuple whose key differs (the paper's parameters "set to
output a tuple whenever a window is full, never as a result of a
timeout").  For the sample stream, Tumble(avg(B), groupby A) emits
(A=1, Result=2.5) on tuple #3 and (A=2, Result=3.0) on tuple #6, with a
third window (A=4) still in progress after tuple #7.

A count-based mode (``mode="count"``) is provided as an extension: each
group's window closes after ``window_size`` tuples, with windows for
different groups open concurrently.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from repro.core.aggregates import (
    AggregateFunction,
    get_aggregate,
    segment_fold,
    segment_results,
)
from repro.core.columnar import (
    ColumnarTrain,
    as_column,
    column_value,
    group_rows,
)
from repro.core.operators.base import Emission, Operator, TrainEmission
from repro.core.tuples import StreamTuple, key_getter
from repro.obs.trace import TraceColumn


def _prepend_row(
    row: StreamTuple,
    key_cols: dict[str, np.ndarray],
    results: Sequence[Any] | np.ndarray,
    timestamps: np.ndarray,
) -> tuple[dict[str, np.ndarray], Sequence[Any] | np.ndarray, np.ndarray] | None:
    """Fold one leading emission row into the block that follows it.

    Returns the widened ``(key_cols, results, timestamps)``, or None
    when the row carries a trace context or any value would
    change column dtype under concatenation (a dtype change would alter
    the materialized Python types, which must stay byte-identical to
    the scalar path's per-tuple emissions).
    """
    if row.trace is not None:
        return None
    values = row.values
    fields = list(values)
    result_value = values[fields[-1]]  # result_attr is always last
    if isinstance(results, np.ndarray):
        head = as_column([result_value])
        if head.dtype != results.dtype:
            return None
        merged_results: Sequence[Any] | np.ndarray = np.concatenate(
            [head, results]
        )
    else:
        # List results go through as_column in add_block, which boxes
        # type-mixed values rather than promoting — always exact.
        merged_results = [result_value, *results]
    merged_cols: dict[str, np.ndarray] = {}
    for field, column in key_cols.items():
        head = as_column([values[field]])
        if head.dtype != column.dtype:
            return None
        merged_cols[field] = np.concatenate([head, column])
    merged_ts = np.concatenate(([row.timestamp], timestamps))
    return merged_cols, merged_results, merged_ts


class _WindowEmissions:
    """Ordered collector of window-kernel emissions, packed into trains.

    Vectorized paths append whole column blocks; carried-state closures
    and timeout flushes append individual :class:`StreamTuple` rows.
    Consecutive rows are packed into one train, so a claim's output is
    a short list of trains in exact emission order.
    """

    __slots__ = ("_fields", "_result_attr", "_trains", "_rows")

    def __init__(self, groupby: tuple[str, ...], result_attr: str):
        self._fields = (*groupby, result_attr)
        self._result_attr = result_attr
        self._trains: list[ColumnarTrain] = []
        self._rows: list[StreamTuple] = []

    def add_tuple(self, tup: StreamTuple) -> None:
        self._rows.append(tup)

    def add_emissions(self, emissions: Iterable[Emission]) -> None:
        for _port, tup in emissions:
            self._rows.append(tup)

    def _flush_rows(self) -> None:
        rows = self._rows
        if not rows:
            return
        self._rows = []
        if all(t.trace is None for t in rows):
            # Window emissions are built by derive() with exactly these
            # fields, so the train can be assembled directly — cheaper
            # than from_tuples' schema scan for the tiny carried-closure
            # trains this collector mostly sees.
            fields = self._fields
            columns = {f: as_column([t.values[f] for t in rows]) for f in fields}
            timestamps = np.asarray([t.timestamp for t in rows], dtype=np.float64)
            self._trains.append(ColumnarTrain(fields, columns, timestamps))
            return
        train = ColumnarTrain.from_tuples(rows)
        assert train is not None  # window emissions share one schema
        self._trains.append(train)

    def add_block(
        self,
        key_columns: dict[str, np.ndarray],
        results: Sequence[Any] | np.ndarray,
        timestamps: np.ndarray,
        traces: TraceColumn | None = None,
    ) -> None:
        self._flush_rows()
        columns = dict(key_columns)
        if isinstance(results, np.ndarray) and results.ndim == 1:
            columns[self._result_attr] = results
        else:
            columns[self._result_attr] = as_column(list(results))
        self._trains.append(
            ColumnarTrain(self._fields, columns, timestamps, traces=traces)
        )

    def trains(self) -> list[TrainEmission]:
        self._flush_rows()
        return [(0, t) for t in self._trains]


class Tumble(Operator):
    """Tumble(agg, groupby): windowed aggregation.

    Args:
        agg: aggregate function (instance or registered name).
        groupby: attribute names mapping tuples to windows.
        value_attr: attribute fed to the aggregate.
        result_attr: name of the emitted aggregate field (paper: "Result").
        mode: "run" (paper semantics: window = maximal run of equal keys,
            emitted when the key changes) or "count" (window closes after
            ``window_size`` tuples per group).
        window_size: window length for ``mode="count"``.
        timeout: the footnote's second emission parameter — "when an
            aggregate times out".  An open window whose last arrival is
            older than ``timeout`` (in tuple-timestamp units) is emitted
            upon the next arrival, whatever its group.  ``inf`` (the
            default) restores the paper's "never as a result of a
            timeout" setting.
    """

    def __init__(
        self,
        agg: AggregateFunction | str,
        groupby: tuple[str, ...] | list[str],
        value_attr: str,
        result_attr: str = "result",
        mode: str = "run",
        window_size: int | None = None,
        timeout: float = float("inf"),
        cost_per_tuple: float = 0.002,
    ):
        super().__init__(cost_per_tuple=cost_per_tuple)
        self.agg = get_aggregate(agg) if isinstance(agg, str) else agg
        if not groupby:
            raise ValueError("Tumble needs at least one groupby attribute")
        if mode not in ("run", "count"):
            raise ValueError(f"unknown Tumble mode {mode!r}; use 'run' or 'count'")
        if mode == "count" and (window_size is None or window_size < 1):
            raise ValueError("mode='count' requires window_size >= 1")
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.groupby = tuple(groupby)
        self._key_of = key_getter(self.groupby)
        self.value_attr = value_attr
        self.result_attr = result_attr
        self.mode = mode
        self.window_size = window_size
        self.timeout = timeout
        self.reset()

    @property
    def stateful(self) -> bool:
        return True

    def reset(self) -> None:
        # mode="run": single open window for the current key run.
        self._run_key: tuple | None = None
        self._run_state: Any = None
        self._run_first: StreamTuple | None = None
        # mode="count": concurrently open per-group windows.
        self._windows: dict[tuple, tuple[Any, int, StreamTuple]] = {}
        self._last_arrival: float | None = None
        self.windows_emitted = 0
        self.timeouts_fired = 0

    def process(self, tup: StreamTuple, port: int = 0) -> list[Emission]:
        if port != 0:
            raise ValueError(f"Tumble has a single input port, got {port}")
        timed_out = self._fire_timeouts(tup.timestamp)
        self._last_arrival = tup.timestamp
        if self.mode == "run":
            return timed_out + self._process_run(tup)
        return timed_out + self._process_count(tup)

    def process_batch(self, tuples: list[StreamTuple], port: int = 0) -> list[Emission]:
        """Vectorized group-partition inner loop.

        Hoists the aggregate's update function, the compiled groupby-key
        getter and the window table out of the per-tuple path and builds
        the output batch in one pass.  The timeout variant interleaves
        window firing with arrival order, so it keeps the exact scalar
        loop (the base-class fallback).
        """
        if port != 0:
            raise ValueError(f"Tumble has a single input port, got {port}")
        if not tuples or self.timeout != float("inf"):
            return super().process_batch(tuples, port=port)
        agg = self.agg
        update = agg.update
        key_of = self._key_of
        value_attr = self.value_attr
        groupby = self.groupby
        result_attr = self.result_attr
        emissions: list[Emission] = []
        append = emissions.append
        emitted = 0
        if self.mode == "run":
            run_key = self._run_key
            run_state = self._run_state
            run_first = self._run_first
            for tup in tuples:
                values = tup.values
                key = key_of(values)
                if key != run_key:
                    if run_key is not None:
                        out = dict(zip(groupby, run_key))
                        out[result_attr] = agg.result(run_state)
                        append((0, run_first.derive(out)))
                        emitted += 1
                    run_key = key
                    run_state = agg.initial()
                    run_first = tup
                run_state = update(run_state, values[value_attr])
            self._run_key = run_key
            self._run_state = run_state
            self._run_first = run_first
        else:
            windows = self._windows
            window_size = self.window_size or 1
            initial = agg.initial
            for tup in tuples:
                values = tup.values
                key = key_of(values)
                entry = windows.get(key)
                if entry is None:
                    state, count, first = initial(), 0, tup
                else:
                    state, count, first = entry
                state = update(state, values[value_attr])
                count += 1
                if count >= window_size:
                    windows.pop(key, None)
                    out = dict(zip(groupby, key))
                    out[result_attr] = agg.result(state)
                    append((0, first.derive(out)))
                    emitted += 1
                else:
                    windows[key] = (state, count, first)
        self._last_arrival = tuples[-1].timestamp
        self.windows_emitted += emitted
        return emissions

    # -- columnar window kernel (no materialization barrier) ----------------

    @property
    def supports_columnar(self) -> bool:
        return True

    def process_columnar(self, train: ColumnarTrain, port: int = 0) -> list[TrainEmission]:
        """Vectorized window evaluation over a columnar train.

        Run mode finds window boundaries with a key-change mask over the
        groupby columns; count mode groups rows per key and closes
        windows at counted offsets.  Open windows carry across claims as
        the exact scalar state (``_run_*`` / ``_windows``), so results
        are bit-identical to the per-tuple loop, including the timeout
        rule: the train is split at every inter-arrival gap >= timeout
        and ``_fire_timeouts`` runs between the chunks.

        A closed window carries the trace context of its first row
        (what ``first.derive()`` copies on the row path).  No claim is
        declined whole; ungroupable count-mode keys run the row kernel
        in place, per chunk (below).
        """
        if port != 0:
            raise ValueError(f"Tumble has a single input port, got {port}")
        n = len(train)
        if n == 0:
            return []
        out = _WindowEmissions(self.groupby, self.result_attr)
        ts = train.timestamps
        chunks = [0]
        if self.timeout != float("inf") and n > 1:
            chunks += (np.flatnonzero(np.diff(ts) >= self.timeout) + 1).tolist()
        chunks.append(n)
        for ci in range(len(chunks) - 1):
            a, b = chunks[ci], chunks[ci + 1]
            out.add_emissions(self._fire_timeouts(float(ts[a])))
            if self.mode == "run":
                self._columnar_run(train, a, b, out)
            else:
                if not self._columnar_count(train, a, b, out):
                    # Ungroupable keys in THIS chunk.  Earlier chunks
                    # (and the timeout flush above) have already written
                    # window state, so the claim can no longer decline:
                    # the one site that runs the row kernel in place.
                    sub = train.slice(a, b)
                    out.add_emissions(self.process_batch(sub.to_tuples(), port=0))
                    continue  # the list path updated _last_arrival itself
            self._last_arrival = float(ts[b - 1])
        return out.trains()

    def _columnar_run(
        self, train: ColumnarTrain, a: int, b: int, out: _WindowEmissions
    ) -> None:
        """Run-mode kernel over rows [a, b) (no timeout gap inside)."""
        cols = [train.columns[g][a:b] for g in self.groupby]
        vals = train.columns[self.value_attr][a:b]
        m = b - a
        if m > 1:
            change = np.asarray(cols[0][1:] != cols[0][:-1], dtype=bool)
            for c in cols[1:]:
                change |= np.asarray(c[1:] != c[:-1], dtype=bool)
            bounds = np.flatnonzero(change) + 1
        else:
            bounds = np.empty(0, dtype=np.intp)
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [m]))
        k = len(starts)
        agg = self.agg
        idx = 0
        closure = None
        if self._run_key is not None:
            first_key = tuple(column_value(c, 0) for c in cols)
            if first_key == self._run_key:
                # The carried open window extends through run 0.
                self._run_state = segment_fold(
                    agg, self._run_state, vals, 0, int(ends[0])
                )
                if k == 1:
                    return  # still open; _run_first unchanged
                closure = self._emit_run()
                idx = 1
            else:
                closure = self._emit_run()
        # Interior complete runs close when the next run starts.
        if k - 1 > idx:
            c_starts = starts[idx:k - 1]
            results = segment_results(agg, vals, c_starts, ends[idx:k - 1])
            key_cols = {g: c[c_starts] for g, c in zip(self.groupby, cols)}
            timestamps = train.timestamps[a:b][c_starts]
            traces = (
                train.traces.at_rows(a + c_starts)
                if train.traces is not None else None
            )
            if closure is not None:
                merged = _prepend_row(closure, key_cols, results, timestamps)
                if merged is None:
                    out.add_tuple(closure)
                else:
                    key_cols, results, timestamps = merged
                    if traces is not None:
                        traces = traces.shifted(1)
                closure = None
            out.add_block(key_cols, results, timestamps, traces)
            self.windows_emitted += k - 1 - idx
        elif closure is not None:
            out.add_tuple(closure)
        # The trailing run stays open.
        s_last = int(starts[-1])
        self._run_key = tuple(column_value(c, s_last) for c in cols)
        self._run_state = segment_fold(agg, agg.initial(), vals, s_last, m)
        self._run_first = train.tuple_at(a + s_last)

    def _columnar_count(
        self, train: ColumnarTrain, a: int, b: int, out: _WindowEmissions
    ) -> bool:
        """Count-mode kernel over rows [a, b); False if keys are ungroupable."""
        cols = [train.columns[g][a:b] for g in self.groupby]
        grouped = group_rows(cols)
        if grouped is None:
            return False
        order, gstarts, gends = grouped
        vals = train.columns[self.value_attr][a:b]
        agg = self.agg
        ws = self.window_size or 1
        windows = self._windows
        groupby = self.groupby
        result_attr = self.result_attr
        svals = vals[order]
        # (chunk position of the closing row, emission) — sorted at the
        # end so emissions interleave across groups in arrival order.
        pending: list[tuple[int, StreamTuple]] = []
        # (chunk position of the opening row, key, entry) — applied in
        # that order so new dict keys land where the scalar per-tuple
        # loop would insert them (snapshots compare byte-identical).
        inserts: list[tuple[int, tuple, tuple]] = []
        for gi in range(len(gstarts)):
            gs, ge = int(gstarts[gi]), int(gends[gi])
            rows = order[gs:ge]
            key = tuple(column_value(c, int(rows[0])) for c in cols)
            entry = windows.get(key)
            if entry is None:
                state, count, first = agg.initial(), 0, None
            else:
                state, count, first = entry
            gm = ge - gs
            first_close = ws - count - 1
            if first_close >= gm:
                # Window stays open through this chunk.
                state = segment_fold(agg, state, svals, gs, ge)
                if entry is None:
                    first = train.tuple_at(a + int(rows[0]))
                    inserts.append((int(rows[0]), key, (state, gm, first)))
                else:
                    windows[key] = (state, count + gm, first)
                continue
            # The window closing first continues the carried state.
            state = segment_fold(agg, state, svals, gs, gs + first_close + 1)
            if first is None:
                first = train.tuple_at(a + int(rows[0]))
            values = dict(zip(groupby, key))
            values[result_attr] = agg.result(state)
            pending.append((int(rows[first_close]), first.derive(values)))
            windows.pop(key, None)
            # Fresh complete windows, one segment reduction for all.
            n_fresh = (gm - first_close - 1) // ws
            if n_fresh:
                f_starts = gs + first_close + 1 + ws * np.arange(n_fresh)
                results = segment_results(agg, svals, f_starts, f_starts + ws)
                first_rows = rows[f_starts - gs]
                close_rows = rows[f_starts - gs + ws - 1]
                for j in range(n_fresh):
                    r = results[j]
                    values = dict(zip(groupby, key))
                    values[result_attr] = r.item() if isinstance(r, np.generic) else r
                    pending.append((
                        int(close_rows[j]),
                        train.tuple_at(a + int(first_rows[j])).derive(values),
                    ))
            # Trailing rows open a fresh partial window.
            tail = first_close + 1 + ws * n_fresh
            if tail < gm:
                state = segment_fold(agg, agg.initial(), svals, gs + tail, ge)
                inserts.append((
                    int(rows[tail]), key,
                    (state, gm - tail, train.tuple_at(a + int(rows[tail]))),
                ))
        inserts.sort(key=lambda ie: ie[0])
        for _pos, key, entry in inserts:
            windows[key] = entry
        pending.sort(key=lambda pe: pe[0])
        self.windows_emitted += len(pending)
        for _pos, tup in pending:
            out.add_tuple(tup)
        return True

    def _fire_timeouts(self, now: float) -> list[Emission]:
        """Emit windows stale for longer than the timeout (the footnote's
        'when an aggregate times out' parameter)."""
        if (
            self.timeout == float("inf")
            or self._last_arrival is None
            or now - self._last_arrival < self.timeout
        ):
            return []
        emissions = self.flush()
        self.timeouts_fired += len(emissions)
        return emissions

    # -- run-based windows (paper's Figure 2 semantics) -------------------

    def _process_run(self, tup: StreamTuple) -> list[Emission]:
        key = self._key_of(tup.values)
        emissions: list[Emission] = []
        if self._run_key is not None and key != self._run_key:
            emissions.append((0, self._emit_run()))
        if self._run_key is None or key != self._run_key:
            self._run_key = key
            self._run_state = self.agg.initial()
            self._run_first = tup
        self._run_state = self.agg.update(self._run_state, tup[self.value_attr])
        return emissions

    def _emit_run(self) -> StreamTuple:
        assert self._run_key is not None and self._run_first is not None
        out = self._make_result(self._run_key, self._run_state, self._run_first)
        self._run_key = None
        self._run_state = None
        self._run_first = None
        self.windows_emitted += 1
        return out

    # -- count-based windows (extension) -----------------------------------

    def _process_count(self, tup: StreamTuple) -> list[Emission]:
        key = self._key_of(tup.values)
        state, count, first = self._windows.get(key, (self.agg.initial(), 0, tup))
        state = self.agg.update(state, tup[self.value_attr])
        count += 1
        if count >= (self.window_size or 1):
            self._windows.pop(key, None)
            self.windows_emitted += 1
            return [(0, self._make_result(key, state, first))]
        self._windows[key] = (state, count, first)
        return []

    # -- shared helpers ----------------------------------------------------

    def _make_result(self, key: tuple, state: Any, first: StreamTuple) -> StreamTuple:
        values = dict(zip(self.groupby, key))
        values[self.result_attr] = self.agg.result(state)
        return first.derive(values)

    def flush(self) -> list[Emission]:
        emissions: list[Emission] = []
        if self.mode == "run":
            if self._run_key is not None:
                emissions.append((0, self._emit_run()))
        else:
            for key, (state, _count, first) in sorted(
                self._windows.items(), key=lambda kv: repr(kv[0])
            ):
                emissions.append((0, self._make_result(key, state, first)))
                self.windows_emitted += 1
            self._windows.clear()
        return emissions

    def snapshot(self) -> Any:
        return (
            self._run_key,
            self._run_state,
            self._run_first,
            dict(self._windows),
            self.windows_emitted,
            self._last_arrival,
            self.timeouts_fired,
        )

    def restore(self, state: Any) -> None:
        if state is None:
            self.reset()
            return
        (
            self._run_key,
            self._run_state,
            self._run_first,
            windows,
            self.windows_emitted,
            self._last_arrival,
            self.timeouts_fired,
        ) = state
        self._windows = dict(windows)

    def describe(self) -> str:
        window = f", window={self.window_size}" if self.mode == "count" else ""
        return (
            f"Tumble({self.agg.name}({self.value_attr}), "
            f"groupby {', '.join(self.groupby)}{window})"
        )
