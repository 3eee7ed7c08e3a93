"""Superbox compilation: fuse linear operator chains into batch kernels.

Section 2.3 frames train scheduling as deciding "how many of the
tuples ... to process and how far to push them toward the output"; the
logical endpoint of pushing a train all the way is to *compile* the
push.  A maximal linear run of stateless, order-preserving, single-in/
single-out boxes (Filter, Map, CaseFilter) becomes one **superbox**: a
:class:`FusedChain` that threads a whole train through every
constituent kernel in a single pass, so the interior arcs see no deque
traffic, no ``queue_times`` stamping, no per-hop claim/emit bookkeeping
— the intra-node analogue of kernel fusion in modern dataflow engines.

Eligibility (where a run stops):

* only ``fusable`` operators with ``arity == 1`` and no cross-tuple
  state may be members; a multi-output member (CaseFilter, Filter with
  a false port) can only be the *tail* of its run;
* a stateful *windowed* operator with a columnar kernel (Tumble, Slide,
  WSort — ``supports_columnar`` and ``arity == 1``) may terminate a run
  as its tail: the window state lives in the ground-truth operator, so
  defusion still needs no hand-back, and a claimed train reaches the
  window kernel without materializing on an interior arc;
* fan-out (an output port feeding several arcs) and fan-in (Union,
  Join) break the run;
* arcs bearing a connection point are never interior — ad-hoc queries
  attach there and must keep seeing every tuple;
* arcs with queued tuples are never fused over (nothing may be hidden
  from the scheduler's view of backlog).

Fusion is an execution *overlay*, not a network rewrite: constituent
:class:`~repro.core.query.Box` objects and their arcs stay registered
in the network, so reachability queries, ``queued_work()``, QoS
inference, storage rebalancing and run-time rewrites (sliding,
splitting, re-optimization, ad-hoc attach) all keep operating on the
ground-truth graph.  The engine simply schedules the run as one unit
(under the head box's id) and keeps *logical* attribution: per-
constituent ``tuples_in/out``, ``busy_time``, latency sums, obs
counters and trace spans are emitted exactly as the unfused network
would emit them.  A fused train always runs through every stage, so
interior arcs are empty by construction and any queued tuples are
already sitting at the superbox input (the head's input arc).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.columnar import ColumnarTrain
from repro.core.operators.base import Operator
from repro.core.operators.filter import Filter
from repro.core.operators.map import Map
from repro.core.query import Box, QueryNetwork
from repro.core.tuples import StreamTuple

Kernel = Callable[[list[StreamTuple]], list[StreamTuple]]
ColumnarKernel = Callable[[ColumnarTrain], Optional[ColumnarTrain]]


def chainable(box: Box) -> bool:
    """True if ``box`` may be a member of a fused run."""
    operator = box.operator
    return operator.fusable and operator.arity == 1 and not operator.stateful


def _interior_kernel(operator: Operator) -> Kernel:
    """A batch kernel for an interior (single-output) stage.

    Takes and returns plain tuple lists — the port wrapper is dropped
    because every interior emission is on port 0.  Filter and Map get
    dedicated kernels that skip the ``(port, tuple)`` boxing entirely;
    anything else (e.g. a single-predicate CaseFilter, whose ``routed``
    counters must keep advancing) goes through its own
    ``process_batch``, which is exactly equivalent by contract.
    """
    if type(operator) is Filter and not operator.with_false_port:
        predicate = operator.predicate

        def filter_kernel(batch: list[StreamTuple]) -> list[StreamTuple]:
            return [t for t in batch if predicate(t)]

        return filter_kernel
    if type(operator) is Map:
        func = operator.func
        make = StreamTuple

        def map_kernel(batch: list[StreamTuple]) -> list[StreamTuple]:
            return [make(func(t.values), t.timestamp, t.trace) for t in batch]

        return map_kernel
    process_batch = operator.process_batch

    def generic_kernel(batch: list[StreamTuple]) -> list[StreamTuple]:
        return [t for _port, t in process_batch(batch, port=0)]

    return generic_kernel


def _interior_columnar_kernel(operator: Operator) -> Optional[ColumnarKernel]:
    """A columnar kernel for an interior stage, or None if unsupported.

    Filter and Map with compiled bodies get direct mask/column kernels
    (no emission boxing at all); other columnar-capable single-output
    operators (e.g. a one-predicate CaseFilter, whose routing counters
    must advance) go through their own ``process_columnar``.  A None
    return — here, or from the kernel when ``process_columnar`` declines
    a train — makes the train runner materialize the train before this
    stage and continue on the list kernels.
    """
    if not operator.supports_columnar:
        return None
    if type(operator) is Filter and not operator.with_false_port:
        predicate = operator.predicate

        def filter_kernel(train: ColumnarTrain) -> ColumnarTrain:
            mask = predicate.mask(train)  # type: ignore[union-attr]
            if mask.all():
                return train
            return train.select(mask)

        return filter_kernel
    if type(operator) is Map:
        func = operator.func

        def map_kernel(train: ColumnarTrain) -> ColumnarTrain:
            return func.evaluate(train)  # type: ignore[union-attr]

        return map_kernel
    process_columnar = operator.process_columnar

    def generic_kernel(train: ColumnarTrain) -> Optional[ColumnarTrain]:
        emissions = process_columnar(train, port=0)
        if emissions is None:
            return None
        if not emissions:
            return train.slice(0, 0)
        return emissions[0][1]

    return generic_kernel


class FusedChain:
    """One superbox: a linear run of boxes compiled into a single unit.

    Holds the original :class:`~repro.core.query.Box` objects (the
    *stages*) — never copies of them — so all statistics accumulated
    while fused are attributed to the constituents, and defusion needs
    no state hand-back.  The engine drives ``stages`` and the two
    kernel lists directly; the lists are public and read at call time,
    so a profiler may swap entries after construction.
    """

    def __init__(self, boxes: list[Box]):
        stages = list(boxes)
        if len(stages) < 2:
            raise ValueError("a fused chain needs at least two stages")
        self.stages = stages
        self.interior_kernels = [
            _interior_kernel(b.operator) for b in stages[:-1]
        ]
        # Columnar overlays: None entries mark the first stage at which
        # a columnar train must materialize back to a tuple list (the
        # train runner then falls through to interior_kernels).
        self.columnar_kernels: list[Optional[ColumnarKernel]] = [
            _interior_columnar_kernel(b.operator) for b in stages[:-1]
        ]
        self.tail_columnar = stages[-1].operator.supports_columnar

    @property
    def tail(self) -> Box:
        return self.stages[-1]

    def member_ids(self) -> list[str]:
        return [box.id for box in self.stages]


def _sole_successor(network: QueryNetwork, box: Box) -> Box | None:
    """The one box a run could extend to from ``box``, by the arc rules:
    a single output arc, no connection point, no queued backlog, a box
    (not an output)."""
    if box.operator.n_outputs != 1:
        return None
    arcs = box.output_arcs.get(0, [])
    if len(arcs) != 1:
        return None
    arc = arcs[0]
    if arc.connection_point is not None or arc.queue:
        return None
    kind, _ref = arc.target
    if kind == "out":
        return None
    return network.boxes[str(kind)]


def _fusable_link(network: QueryNetwork, box: Box) -> Box | None:
    """The next member of ``box``'s run, or None if the run ends here."""
    succ = _sole_successor(network, box)
    return succ if succ is not None and chainable(succ) else None


def _window_tail(network: QueryNetwork, box: Box) -> Box | None:
    """A stateful windowed-kernel successor that may terminate the run:
    single-input, shipping its own columnar window kernel — it becomes
    the run's tail and the run stops there."""
    succ = _sole_successor(network, box)
    if succ is None:
        return None
    operator = succ.operator
    if operator.stateful and operator.arity == 1 and operator.supports_columnar:
        return succ
    return None


def _upstream_member(network: QueryNetwork, box: Box) -> Box | None:
    """The box whose run ``box`` belongs to the middle of, if any."""
    arc = box.input_arcs.get(0)
    if arc is None or arc.source[0] == "in":
        return None
    source = network.boxes.get(str(arc.source[0]))
    if source is None or not chainable(source):
        return None
    if _fusable_link(network, source) is box:
        return source
    return None


def find_runs(network: QueryNetwork) -> list[list[str]]:
    """Maximal fusable runs (length >= 2), as box-id lists in flow order.

    Runs are discovered from their heads in topological order, so the
    result is deterministic for a given network.
    """
    runs: list[list[str]] = []
    assigned: set[str] = set()
    for box_id in network.topological_order():
        if box_id in assigned:
            continue
        box = network.boxes[box_id]
        if not chainable(box):
            continue
        if _upstream_member(network, box) is not None:
            continue  # interior or tail of a run found via its head
        run = [box_id]
        current = box
        while True:
            succ = _fusable_link(network, current)
            if succ is None:
                break
            run.append(succ.id)
            current = succ
        # A trailing windowed kernel (stateful, columnar-capable) may
        # close the run; _window_tail rejects multi-output last members
        # (those already ended the run as its tail).
        tail = _window_tail(network, current)
        if tail is not None and tail.id not in assigned:
            run.append(tail.id)
        if len(run) >= 2:
            runs.append(run)
            assigned.update(run)
    return runs


def build_chains(network: QueryNetwork) -> dict[str, FusedChain]:
    """Run the fusion pass; returns ``head_id -> chain``."""
    return {
        run[0]: FusedChain([network.boxes[b] for b in run])
        for run in find_runs(network)
    }
