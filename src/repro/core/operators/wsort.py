"""WSort: time-bounded windowed sort (Section 2.2).

"Given a set of sort attributes A1, A2, ..., An and a timeout, WSort
buffers all incoming tuples and emits tuples in its buffer in ascending
order of its sort attributes, with at least one tuple emitted per
timeout period."

The paper's footnote makes WSort *potentially lossy*: a tuple arriving
after some tuple that follows it in sort order has already been emitted
must be discarded.  We count such discards in :attr:`tuples_discarded`.

The timeout is interpreted against tuple timestamps (the only clock an
operator sees): a buffered tuple must be emitted once a tuple arrives
whose timestamp exceeds the buffered tuple's arrival by ``timeout``.
With a large timeout, WSort degenerates into a full buffered sort
drained by :meth:`flush` — exactly the "assuming a large enough timeout
argument" reading used in the paper's Figure 6 merge network.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any

from repro.core.columnar import ColumnarTrain
from repro.core.operators.base import Emission, Operator, TrainEmission
from repro.core.tuples import StreamTuple


class WSort(Operator):
    """WSort(sort_attrs, timeout): emit buffered tuples in sort order.

    Args:
        sort_attrs: attribute names forming the ascending sort key.
        timeout: maximum buffering time (in tuple-timestamp units)
            before a tuple is forced out.  ``float('inf')`` buffers
            until flush.
    """

    def __init__(
        self,
        sort_attrs: tuple[str, ...] | list[str],
        timeout: float = float("inf"),
        cost_per_tuple: float = 0.002,
    ):
        super().__init__(cost_per_tuple=cost_per_tuple)
        if not sort_attrs:
            raise ValueError("WSort needs at least one sort attribute")
        if timeout <= 0:
            raise ValueError("WSort timeout must be positive")
        self.sort_attrs = tuple(sort_attrs)
        self.timeout = timeout
        self._heap: list[tuple[tuple, int, float, StreamTuple]] = []
        # Columnar trains accepted while in the pure-buffering regime
        # (timeout=inf, nothing emitted yet); materialized lazily on the
        # first heap access.  See process_columnar.
        self._pending: list[ColumnarTrain] = []
        self._tiebreak = itertools.count()
        self._last_emitted_key: tuple | None = None
        # Start of the current timeout period; None while the buffer is
        # empty.  "At least one tuple emitted per timeout period" is
        # enforced by emitting the minimum whenever a period elapses.
        self._period_start: float | None = None
        self.tuples_discarded = 0

    @property
    def stateful(self) -> bool:
        return True

    def _key(self, tup: StreamTuple) -> tuple:
        return tup.key(self.sort_attrs)

    # -- columnar fast path -------------------------------------------------

    @property
    def supports_columnar(self) -> bool:
        return True

    def process_columnar(self, train: ColumnarTrain, port: int = 0) -> list[TrainEmission] | None:
        """Buffer whole trains while nothing can be emitted or discarded.

        In the pure-buffering regime — ``timeout`` is infinite and no
        tuple has been emitted yet — the scalar path's only per-tuple
        work is a heap push, so the train is parked unmaterialized and
        absorbed (in arrival order, with identical tiebreak numbering)
        only when the heap is actually needed: the next scalar process,
        a flush, or a snapshot.  Outside that regime the claim is
        declined; nothing is parked then (parking needs this regime, and
        only ``process``/``flush`` — which absorb first — can leave it).
        """
        if port != 0:
            raise ValueError(f"WSort has a single input port, got {port}")
        if len(train) == 0:
            return []
        if self.timeout != float("inf") or self._last_emitted_key is not None:
            return None
        if self._period_start is None:
            self._period_start = float(train.timestamps[0])
        self._pending.append(train)
        return []

    def _absorb_pending(self) -> None:
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        heap = self._heap
        tiebreak = self._tiebreak
        key_of = self._key
        for train in pending:
            for tup in train.to_tuples():
                heapq.heappush(
                    heap, (key_of(tup), next(tiebreak), tup.timestamp, tup)
                )

    def process(self, tup: StreamTuple, port: int = 0) -> list[Emission]:
        if port != 0:
            raise ValueError(f"WSort has a single input port, got {port}")
        if self._pending:
            self._absorb_pending()
        key = self._key(tup)
        if self._last_emitted_key is not None and key < self._last_emitted_key:
            # Lossy case from the paper's footnote: a later-sorting tuple
            # was already emitted, so this one must be discarded.
            self.tuples_discarded += 1
            return []
        if self._period_start is None:
            self._period_start = tup.timestamp
        heapq.heappush(self._heap, (key, next(self._tiebreak), tup.timestamp, tup))
        emissions: list[Emission] = []
        while self._heap and tup.timestamp - self._period_start >= self.timeout:
            emissions.append((0, self._pop()))
            self._period_start += self.timeout
        if not self._heap:
            self._period_start = None
        return emissions

    def _pop(self) -> StreamTuple:
        key, _tie, _arrived, out = heapq.heappop(self._heap)
        self._last_emitted_key = key
        return out

    def flush(self) -> list[Emission]:
        self._absorb_pending()
        emissions: list[Emission] = []
        while self._heap:
            emissions.append((0, self._pop()))
        return emissions

    def reset(self) -> None:
        self._heap = []
        self._pending = []
        self._last_emitted_key = None
        self._period_start = None
        self.tuples_discarded = 0

    def snapshot(self) -> Any:
        self._absorb_pending()
        return (
            list(self._heap),
            self._last_emitted_key,
            self._period_start,
            self.tuples_discarded,
        )

    def restore(self, state: Any) -> None:
        if state is None:
            self.reset()
            return
        heap, last_key, period_start, discarded = state
        self._heap = list(heap)
        heapq.heapify(self._heap)
        self._pending = []
        self._last_emitted_key = last_key
        self._period_start = period_start
        self.tuples_discarded = discarded

    @property
    def buffered(self) -> int:
        """Number of tuples currently held in the sort buffer."""
        return len(self._heap) + sum(len(t) for t in self._pending)

    def describe(self) -> str:
        timeout = "inf" if self.timeout == float("inf") else f"{self.timeout:g}"
        return f"WSort({', '.join(self.sort_attrs)}; timeout={timeout})"
