"""Reference semantics, outside the engine.

Two answers to "what should this network have done?":

* :func:`execute` (defined in :mod:`repro.core.query`, re-exported
  here) says what a network *delivers*: every input merged in timestamp
  order and pushed depth-first, one tuple at a time, with no clock.  The
  parallel plane's oracle (``run_dual``) and the elasticity sweep
  compare against it.
  :func:`output_diff` is what "delivered the same" means there: the
  same multiset of :func:`output_key` (timestamp and values) per stream.
* :func:`replay` says what it *cost*.  Given the decision log an
  :class:`~repro.core.engine.AuroraEngine` kept (``engine.decision_log
  = []`` before the run), it re-runs the logged schedule one tuple at a
  time with plain Python float chains and reports the outputs per stream
  in order, the virtual clock, the step count and the per-box statistics
  the engine should have reached.

The log holds the decisions, not their consequences: what was offered
at each input and what the shedder admitted, where each scheduling step
began (with its overhead) and ended (with the storage settings), each
train's box, budget and capacity (and its stage list when the engine
ran it as a superbox), each flush group and each idle clock jump.
Everything else — which input arc a tuple is taken from, what it costs,
where its emissions go and when they were enqueued, what spills —
``replay`` derives from §2.2's box semantics on its own: no scheduler,
no claim runs, no batching, no fusion, no NumPy, and a
:class:`~repro.core.storage.StorageManager` of its own.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from repro.core.query import Arc, Box, QueryNetwork, execute
from repro.core.storage import StorageManager
from repro.core.tuples import StreamTuple

__all__ = [
    "BoxStats", "Replay", "box_stats", "execute", "output_diff", "output_key", "replay",
]


def output_key(tup: StreamTuple) -> tuple:
    """Multiset identity of one delivered tuple: timestamp + values.

    Values are keyed by ``repr`` so float payloads compare exactly (the
    runs compared execute identical operator code on identical inputs,
    so bit-equal floats are the expectation, not an approximation).
    Timestamps survive every rewrite: tuples are rerouted, not rebuilt.
    """
    return (
        repr(tup.timestamp),
        tuple(sorted((k, repr(v)) for k, v in tup.values.items())),
    )


def output_diff(
    expected: Iterable[StreamTuple], delivered: Iterable[StreamTuple]
) -> tuple[Counter, Counter]:
    """``(missing, extra)``: the :func:`output_key` multisets one stream's
    delivered tuples lack and add against the expected ones (both empty
    when the stream delivered the same)."""
    want = Counter(map(output_key, expected))
    got = Counter(map(output_key, delivered))
    return want - got, got - want


class BoxStats(NamedTuple):
    """One box's run-time statistics (:class:`~repro.core.query.Box`)."""

    tuples_in: int
    tuples_out: int
    busy_time: float
    latency_sum: float
    latency_count: int


def box_stats(network: QueryNetwork) -> dict[str, BoxStats]:
    """Every box's statistics, by box id."""
    return {
        box_id: BoxStats(
            box.tuples_in, box.tuples_out, box.busy_time,
            box.latency_sum, box.latency_count,
        )
        for box_id, box in network.boxes.items()
    }


@dataclass
class Replay:
    """What a logged schedule should have produced; ``storage`` is the
    replay's own spill accounting (``tuples_spilled``, ``io_time``...)."""

    outputs: dict[str, list[StreamTuple]]
    clock: float
    steps: int
    boxes: dict[str, BoxStats]
    storage: StorageManager


def replay(network: QueryNetwork, log: Sequence[tuple]) -> Replay:
    """Re-run an engine's decision log tuple by tuple.

    ``network`` must be a fresh twin of the engine's network as it was
    when the log was attached: same shape, operators in their initial
    state, nothing queued, nothing spilled.

    Per offered row the clock advances to its timestamp; admitted rows
    enter every arc of their input stamped with the clock.  Per tuple of
    a train: take the input arc whose head was enqueued first (ties to
    the earlier arc), ``clock += read_cost`` when that read is spilled,
    then ``clock += cost / capacity``, ``process(tup, port)``, and hand
    every emission to its arcs stamped with the clock.  A superbox train
    replays as its stages in order.

    Every execution mode of the engine agrees with the result on the
    outputs per stream in order, the clock, the steps and each box's
    ``tuples_in``, ``tuples_out`` and ``latency_count``.  Two fields are
    exempt wherever the engine runs a train as a batch (everywhere but
    its per-tuple path): ``busy_time``, which a batched train books as
    ``count * cost``, and ``latency_sum``, since a batched train's
    emissions are enqueued at the train-end clock rather than each
    tuple's own.  The same stamp can reorder one consumer's input when a
    single train feeds it through two arcs; no network in this
    repository is wired that way.

    Raises ValueError for a log that spans a change of
    ``network.revision``: the network it describes is not one network.
    """
    network.validate()
    run = _Replayer(network)
    handlers = {
        "ingest": run.ingest,
        "step": run.step,
        "train": run.train,
        "rebalance": run.rebalance,
        "flush": run.flush,
        "until": run.until,
        "revision": run.revision,
    }
    for kind, *args in log:
        handlers[kind](*args)
    return Replay(run.outputs, run.clock, run.steps, box_stats(network), run.storage)


class _Replayer:
    def __init__(self, network: QueryNetwork):
        self.network = network
        # Configured from the log: nothing spills before the first
        # rebalance, which carries the engine's storage settings.
        self.storage = StorageManager()
        self.outputs: dict[str, list[StreamTuple]] = {
            name: [] for name in network.outputs
        }
        self.clock = 0.0
        self.steps = 0

    # -- the log's entries ------------------------------------------------------

    def ingest(
        self, input_name: str, rows: Sequence[StreamTuple],
        admitted: Sequence[bool] | None,
    ) -> None:
        arcs = self.network.inputs[input_name]
        for index, tup in enumerate(rows):
            if tup.timestamp > self.clock:
                self.clock = tup.timestamp
            if admitted is None or admitted[index]:
                for arc in arcs:
                    self._send(arc, tup)

    def step(self, overhead: float) -> None:
        self.clock += overhead
        self.steps += 1

    def train(
        self, box_id: str, budget: int, stages: Sequence[str] | None,
        capacity: float,
    ) -> None:
        # A superbox's interior arcs hold at most what its head just
        # emitted, so every later stage takes all of it within ``budget``.
        for member in stages or (box_id,):
            self._run(self.network.boxes[member], budget, capacity)

    def rebalance(self, memory_budget: int, write_cost: float, read_cost: float) -> None:
        storage = self.storage
        storage.memory_budget = memory_budget
        storage.write_cost = write_cost
        storage.read_cost = read_cost
        self.clock += storage.rebalance(self.network)

    def flush(self, box_ids: Sequence[str]) -> None:
        for box_id in box_ids:
            box = self.network.boxes[box_id]
            emissions = box.operator.flush()
            box.tuples_out += len(emissions)
            self._emit(box, emissions)

    def until(self, when: float) -> None:
        if when > self.clock:
            self.clock = when

    def revision(self, revision: int) -> None:
        raise ValueError(
            f"the log spans a network revision change (to {revision}); "
            "a replay needs one network shape from start to end"
        )

    # -- §2.2's box semantics, one tuple at a time --------------------------------

    def _run(self, box: Box, budget: int, capacity: float) -> None:
        storage = self.storage
        for _ in range(budget):
            arc = _oldest_head(box)
            if arc is None:
                return
            self.clock += storage.charge_consume(arc)
            tup = arc.queue.popleft()
            enqueued_at = arc.queue_times.popleft()
            cost = box.operator.cost_per_tuple / capacity
            self.clock += cost
            box.busy_time += cost
            box.tuples_in += 1
            emissions = box.operator.process(tup, port=int(arc.target[1]))
            box.tuples_out += len(emissions)
            self._emit(box, emissions)
            box.latency_sum += self.clock - enqueued_at
            box.latency_count += 1

    def _emit(self, box: Box, emissions: list[tuple[int, StreamTuple]]) -> None:
        for port, tup in emissions:
            for arc in box.output_arcs.get(port, ()):
                self._send(arc, tup)

    def _send(self, arc: Arc, tup: StreamTuple) -> None:
        if not arc.push(tup):
            return  # held at a choked connection point
        kind, ref = arc.target
        if kind == "out":
            arc.queue.popleft()
            self.outputs[str(ref)].append(tup)
        else:
            arc.queue_times.append(self.clock)


def _oldest_head(box: Box) -> Arc | None:
    """The input arc whose head tuple was enqueued first (the earlier arc
    on a tie), or None when nothing is queued."""
    best: Arc | None = None
    best_time = float("inf")
    for arc in box.input_arcs.values():
        if arc.queue and arc.queue_times[0] < best_time:
            best, best_time = arc, arc.queue_times[0]
    return best
