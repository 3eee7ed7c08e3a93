"""XSection and Slide: the paper's additional aggregate operators.

The paper names (but does not detail) two more aggregate operators
beyond Tumble: *XSection* and *Slide*.  Following the cited Aurora
papers, we implement them as overlapping-window aggregation:

* ``XSection(agg, size, advance)``: count-based windows of ``size``
  tuples per group, a new window opening every ``advance`` tuples
  (``advance < size`` means windows overlap; ``advance == size``
  degenerates into a count-based Tumble).
* ``Slide(agg, size)``: a fully sliding window — after each input tuple
  the aggregate of the last ``size`` tuples of its group is emitted.
"""

from __future__ import annotations

from collections import deque
from typing import Any

import numpy as np

from repro.core.aggregates import (
    AggregateFunction,
    _selection_hazard,
    get_aggregate,
)
from repro.core.columnar import (
    ColumnarTrain,
    as_column,
    column_value,
    group_rows,
)
from repro.core.operators.base import Emission, Operator, TrainEmission
from repro.core.operators.tumble import Tumble
from repro.core.tuples import StreamTuple

#: Aggregates whose sliding-window results are expressible as segment
#: slices over a padded sliding view (recomputation-free fast path).
_SLIDE_KERNEL_AGGS = frozenset(
    {"cnt", "sum", "max", "min", "avg", "first", "last"}
)


class XSection(Operator):
    """Overlapping count-based windows per group.

    Args:
        agg: aggregate function (instance or registered name).
        groupby: attributes mapping tuples to window groups.
        value_attr: attribute fed to the aggregate.
        size: tuples per window.
        advance: tuples between consecutive window openings.
        result_attr: emitted aggregate field name.
    """

    def __init__(
        self,
        agg: AggregateFunction | str,
        groupby: tuple[str, ...] | list[str],
        value_attr: str,
        size: int,
        advance: int | None = None,
        result_attr: str = "result",
        cost_per_tuple: float = 0.003,
    ):
        super().__init__(cost_per_tuple=cost_per_tuple)
        self.agg = get_aggregate(agg) if isinstance(agg, str) else agg
        if size < 1:
            raise ValueError("window size must be >= 1")
        advance = size if advance is None else advance
        if advance < 1:
            raise ValueError("window advance must be >= 1")
        self.groupby = tuple(groupby)
        self.value_attr = value_attr
        self.size = size
        self.advance = advance
        self.result_attr = result_attr
        self.reset()

    @property
    def stateful(self) -> bool:
        return True

    def reset(self) -> None:
        # Per group: (tuples seen, list of open windows).  Each open
        # window is (state, count, first_tuple).
        self._groups: dict[tuple, tuple[int, list[tuple[Any, int, StreamTuple]]]] = {}

    def process(self, tup: StreamTuple, port: int = 0) -> list[Emission]:
        if port != 0:
            raise ValueError(f"XSection has a single input port, got {port}")
        key = tup.key(self.groupby)
        seen, windows = self._groups.get(key, (0, []))
        if seen % self.advance == 0:
            windows.append((self.agg.initial(), 0, tup))
        emissions: list[Emission] = []
        still_open: list[tuple[Any, int, StreamTuple]] = []
        for state, count, first in windows:
            state = self.agg.update(state, tup[self.value_attr])
            count += 1
            if count >= self.size:
                emissions.append((0, self._make_result(key, state, first)))
            else:
                still_open.append((state, count, first))
        self._groups[key] = (seen + 1, still_open)
        return emissions

    # A closed window becomes a tuple exactly as a Tumble's does.
    _make_result = Tumble._make_result

    def flush(self) -> list[Emission]:
        emissions: list[Emission] = []
        for key in sorted(self._groups, key=repr):
            _seen, windows = self._groups[key]
            for state, _count, first in windows:
                emissions.append((0, self._make_result(key, state, first)))
        self._groups.clear()
        return emissions

    def snapshot(self) -> Any:
        return {k: (seen, list(ws)) for k, (seen, ws) in self._groups.items()}

    def restore(self, state: Any) -> None:
        if state is None:
            self.reset()
            return
        self._groups = {k: (seen, list(ws)) for k, (seen, ws) in state.items()}

    def describe(self) -> str:
        return (
            f"XSection({self.agg.name}({self.value_attr}), "
            f"groupby {', '.join(self.groupby)}, size={self.size}, advance={self.advance})"
        )


class Slide(Operator):
    """Fully sliding count-based window: one output per input tuple.

    Emits the aggregate of the most recent ``size`` values of the
    tuple's group after every input tuple.  The aggregate is recomputed
    over the retained deque, so non-invertible aggregates (max, min)
    are supported uniformly.
    """

    def __init__(
        self,
        agg: AggregateFunction | str,
        groupby: tuple[str, ...] | list[str],
        value_attr: str,
        size: int,
        result_attr: str = "result",
        cost_per_tuple: float = 0.003,
    ):
        super().__init__(cost_per_tuple=cost_per_tuple)
        self.agg = get_aggregate(agg) if isinstance(agg, str) else agg
        if size < 1:
            raise ValueError("window size must be >= 1")
        self.groupby = tuple(groupby)
        self.value_attr = value_attr
        self.size = size
        self.result_attr = result_attr
        self.reset()

    @property
    def stateful(self) -> bool:
        return True

    def reset(self) -> None:
        self._buffers: dict[tuple, deque] = {}

    def process(self, tup: StreamTuple, port: int = 0) -> list[Emission]:
        if port != 0:
            raise ValueError(f"Slide has a single input port, got {port}")
        key = tup.key(self.groupby)
        buffer = self._buffers.setdefault(key, deque(maxlen=self.size))
        buffer.append(tup[self.value_attr])
        values = dict(zip(self.groupby, key))
        values[self.result_attr] = self.agg.apply(list(buffer))
        return [(0, tup.derive(values))]

    # -- columnar window kernel --------------------------------------------

    @property
    def supports_columnar(self) -> bool:
        return True

    def process_columnar(self, train: ColumnarTrain, port: int = 0) -> list[TrainEmission] | None:
        """Vectorized sliding windows: one output row per input row.

        Rows are grouped by key; each group's windows become segment
        slices of a padded sliding view over (carried buffer + group
        values), evaluated with exact scalar semantics (float sums run
        a strictly sequential accumulate chain seeded at 0.0, matching
        ``agg.apply``'s recomputation fold; max/min are pure selection).
        Trains carrying a sampled row, non-kernel aggregates, or
        ungroupable/non-numeric columns are declined (None).  No group
        state is mutated until every group has passed eligibility, so
        every decline leaves the operator untouched.
        """
        if port != 0:
            raise ValueError(f"Slide has a single input port, got {port}")
        n = len(train)
        if n == 0:
            return []
        name = self.agg.name
        if train.traces or name not in _SLIDE_KERNEL_AGGS:
            return None
        cols = [train.columns[g] for g in self.groupby]
        grouped = group_rows(cols)
        if grouped is None:
            return None
        order, gstarts, gends = grouped
        svals = train.columns[self.value_attr][order]
        groups = []
        for gi in range(len(gstarts)):
            gs, ge = int(gstarts[gi]), int(gends[gi])
            rows = order[gs:ge]
            key = tuple(column_value(c, int(rows[0])) for c in cols)
            buffer = self._buffers.get(key)
            carried = list(buffer) if buffer else []
            gvals = svals[gs:ge]
            full = np.concatenate([as_column(carried), gvals]) if carried else gvals
            if name not in ("cnt", "last"):
                if full.dtype.kind not in "ifb":
                    return None
                if carried and full.dtype != gvals.dtype:
                    # Carried values promoted the window dtype (schema
                    # drift between claims): the scalar path would emit
                    # per-window Python types the promotion loses.
                    return None
                if name in ("max", "min") and _selection_hazard(full):
                    # numpy tie/NaN picks can differ from Python's
                    # first-wins min/max (-0.0 vs 0.0, NaN ordering).
                    return None
            groups.append((key, rows, carried, gvals, full))
        res_list = [
            self._slide_window_results(full, len(carried), len(gvals))
            for _key, _rows, carried, gvals, full in groups
        ]
        out_col = np.empty(n, dtype=res_list[0].dtype)
        out_col[order] = np.concatenate(res_list)
        # Commit in first-arrival order so new dict keys land where the
        # scalar path would insert them (snapshots compare byte-identical).
        for key, _rows, carried, gvals, _full in sorted(
            groups, key=lambda g: int(g[1][0])
        ):
            self._buffers[key] = deque(
                (carried + gvals.tolist())[-self.size:], maxlen=self.size
            )
        out_cols = {g: train.columns[g] for g in self.groupby}
        out_cols[self.result_attr] = out_col
        fields = (*self.groupby, self.result_attr)
        return [(0, ColumnarTrain(fields, out_cols, train.timestamps))]

    def _slide_window_results(self, full: np.ndarray, carried: int, m: int) -> np.ndarray:
        """Results of the ``m`` windows ending at ``full[carried:]``."""
        size = self.size
        name = self.agg.name
        if name == "cnt":
            return np.minimum(np.arange(carried + 1, carried + m + 1), size)
        if name == "last":
            return full[carried:]
        if name == "first":
            idx = np.maximum(np.arange(carried + 1 - size, carried + m + 1 - size), 0)
            return full[idx]
        kind = full.dtype.kind
        if name in ("sum", "avg") and kind in "ib":
            # Cumsum difference: exact for ints (two's-complement wrap is
            # the shared documented divergence).
            cs = np.cumsum(full, dtype=np.int64)
            ends_i = np.arange(carried, carried + m)
            starts_i = np.maximum(ends_i + 1 - size, 0)
            sums = cs[ends_i] - np.where(starts_i > 0, cs[starts_i - 1], 0)
            if name == "sum":
                return sums
            counts = np.minimum(np.arange(carried + 1, carried + m + 1), size)
            return sums / counts
        if name in ("sum", "avg"):
            # Float windows: replay agg.apply's left fold exactly — a
            # 0.0-seeded accumulate chain per row (identity pads included,
            # 0.0 + v is bitwise v for every v the fold can see).
            padded = np.concatenate(
                [np.zeros(size - 1), np.asarray(full, dtype=np.float64)]
            )
            view = np.lib.stride_tricks.sliding_window_view(padded, size)[carried:carried + m]
            chain = np.concatenate([np.zeros((m, 1)), view], axis=1)
            sums = np.add.accumulate(chain, axis=1)[:, -1]
            if name == "sum":
                return sums
            counts = np.minimum(np.arange(carried + 1, carried + m + 1), size)
            return sums / counts
        # max / min: identity-element pads, pure selection.
        if kind == "f":
            pad = -np.inf if name == "max" else np.inf
        elif kind == "b":
            pad = name != "max"
        else:
            info = np.iinfo(full.dtype)
            pad = info.min if name == "max" else info.max
        padded = np.concatenate([np.full(size - 1, pad, dtype=full.dtype), full])
        view = np.lib.stride_tricks.sliding_window_view(padded, size)[carried:carried + m]
        return view.max(axis=1) if name == "max" else view.min(axis=1)

    def snapshot(self) -> Any:
        return {k: list(v) for k, v in self._buffers.items()}

    def restore(self, state: Any) -> None:
        if state is None:
            self.reset()
            return
        self._buffers = {
            k: deque(v, maxlen=self.size) for k, v in state.items()
        }

    def describe(self) -> str:
        return (
            f"Slide({self.agg.name}({self.value_attr}), "
            f"groupby {', '.join(self.groupby)}, size={self.size})"
        )
