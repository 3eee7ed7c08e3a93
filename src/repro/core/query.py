"""Query networks: the boxes-and-arrows data-flow model (Section 2.2).

Tuples flow through a loop-free directed graph of operator boxes.
Arcs carry queues of in-flight tuples; *connection points* are
predetermined arcs where historical data is stored (for ad-hoc queries)
and where network transformations stabilize the flow (Section 5.1:
"Network transformations are only considered between connection
points" — the connection point is "choked off", queued tuples drain,
the network is manipulated, and flow resumes).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Iterable, Iterator, Union

from repro.core.operators.base import Operator
from repro.core.tuples import StreamTuple

if TYPE_CHECKING:
    from repro.core.columnar import ColumnarTrain
    import numpy as np

QueueEntry = Union[StreamTuple, "ColumnarTrain"]


class QueryError(ValueError):
    """Raised for malformed query networks (cycles, bad ports, bad names)."""


class ConnectionPoint:
    """Historical storage + stabilization point on an arc (Sections 2.2, 5.1).

    Stores the last ``retention`` tuples that crossed the arc so ad-hoc
    queries can read history, and supports *choking*: while choked,
    tuples arriving at the arc are collected here instead of flowing on,
    which lets load management quiesce the downstream sub-network before
    moving boxes.
    """

    def __init__(self, retention: int = 1000):
        if retention < 0:
            raise ValueError("retention must be non-negative")
        self.retention = retention
        self.history: deque[StreamTuple] = deque(maxlen=retention if retention else 1)
        self.choked = False
        self.held: deque[StreamTuple] = deque()
        self.tuples_seen = 0
        # Live subscribers (attached ad-hoc queries, Section 2.2): each
        # is called with every tuple batch that crosses the arc.
        self._subscribers: list = []

    def record(self, tup: StreamTuple) -> None:
        """Remember a tuple that crossed the arc."""
        if self.retention:
            self.history.append(tup)
        self.tuples_seen += 1
        for subscriber in self._subscribers:
            subscriber([tup])

    def subscribe(self, callback) -> None:
        """Register a live-tuple callback (``callback(list_of_tuples)``)."""
        self._subscribers.append(callback)

    def unsubscribe(self, callback) -> None:
        if callback in self._subscribers:
            self._subscribers.remove(callback)

    def choke(self) -> None:
        """Stop flow: subsequent arrivals are held, not propagated."""
        self.choked = True

    def unchoke(self) -> list[StreamTuple]:
        """Resume flow; returns (and clears) the held tuples for replay."""
        self.choked = False
        held = list(self.held)
        self.held.clear()
        return held

    def read_history(self) -> list[StreamTuple]:
        """The retained historical tuples, oldest first (ad-hoc queries)."""
        return list(self.history)


class Arc:
    """A directed edge carrying tuples between endpoints.

    Endpoints are either a (box_id, port) pair or an external stream:
    ``("in", name)`` for a network input, ``("out", name)`` for an
    output presented to applications.
    """

    def __init__(
        self,
        arc_id: str,
        source: tuple[str, int | str],
        target: tuple[str, int | str],
        connection_point: ConnectionPoint | None = None,
    ):
        self.id = arc_id
        self.source = source
        self.target = target
        self.connection_point = connection_point
        # Entries are single StreamTuples or whole ColumnarTrain
        # segments (columnar engines enqueue trains without unpacking).
        self.queue: deque[QueueEntry] = deque()
        # Enqueue clocks, maintained by the scheduled engine (and only by
        # it) in lockstep with ``queue``; used for per-box latency stats.
        # A segment entry contributes ONE entry here (its head clock);
        # per-tuple clocks ride on the segment's ``enqueue_clocks``.
        self.queue_times: deque[float] = deque()
        self.tuples_transferred = 0
        # Segment bookkeeping so tuple counts stay O(1) without
        # materializing: len(queue) counts entries, these two close the
        # gap to tuples.
        self._segments = 0
        self._segment_extra = 0

    @property
    def is_input(self) -> bool:
        return self.source[0] == "in"

    @property
    def is_output(self) -> bool:
        return self.target[0] == "out"

    def push(self, tup: StreamTuple) -> bool:
        """Enqueue a tuple; returns False if held at a choked connection point.

        An engine running this network counts what it enqueues itself; a
        caller pushing here directly must follow with the engine's
        ``invalidate_caches()``, or no scheduler, ``flush()`` or
        ``run_until_idle()`` will see the tuple."""
        cp = self.connection_point
        if cp is not None:
            if cp.choked:
                cp.held.append(tup)
                return False
            cp.record(tup)
        self.queue.append(tup)
        self.tuples_transferred += 1
        return True

    # -- columnar segments (repro.core.columnar) -------------------------

    def queued_tuples(self) -> int:
        """Tuples waiting on this arc, counting segment contents."""
        return len(self.queue) + self._segment_extra

    @property
    def has_segments(self) -> bool:
        return self._segments > 0

    def append_train(self, train: "ColumnarTrain", clocks: "np.ndarray") -> None:
        """Enqueue a whole columnar segment with per-tuple enqueue clocks.

        Only the columnar engine calls this; connection-point arcs never
        carry segments (the engine materializes before CP recording).
        """
        if train.enqueue_clocks is not None:
            # Already stamped: the object is queued elsewhere (fan-out)
            # or passed through an operator unchanged.  Clocks are
            # per-queue-entry state — stamp a shallow twin rather than
            # clobbering the entry another arc still holds.
            train = train.requeue_view()
        train.enqueue_clocks = clocks
        self.queue.append(train)
        self.queue_times.append(float(clocks[0]))
        n = len(train)
        self._segments += 1
        self._segment_extra += n - 1
        self.tuples_transferred += n

    def pop_segment(self) -> "ColumnarTrain":
        """Dequeue the head entry, which must be a segment."""
        train = self.queue.popleft()
        self.queue_times.popleft()
        self._segments -= 1
        self._segment_extra -= len(train) - 1  # type: ignore[arg-type]
        return train  # type: ignore[return-value]

    def replace_head_segment(self, train: "ColumnarTrain") -> None:
        """Put back the unclaimed tail of a partially consumed segment."""
        self.queue.appendleft(train)
        clocks = train.enqueue_clocks
        self.queue_times.appendleft(
            float(clocks[0]) if clocks is not None and len(clocks) else 0.0
        )
        self._segments += 1
        self._segment_extra += len(train) - 1

    def materialize_segments(self) -> None:
        """Expand queued segments into individual tuples, in place.

        Called at mixed-representation barriers (plain tuples and
        segments interleaved on one arc): the claim then proceeds on the
        classic list path with identical per-tuple enqueue clocks.
        """
        if not self._segments:
            return
        from repro.core.columnar import ColumnarTrain

        new_queue: deque[QueueEntry] = deque()
        new_times: deque[float] = deque()
        times = self.queue_times
        n_times = len(times)
        index = 0
        for entry in self.queue:
            if isinstance(entry, ColumnarTrain):
                if index < n_times:
                    index += 1  # the segment's single head-clock slot
                new_queue.extend(entry.to_tuples())
                clocks = entry.enqueue_clocks
                if clocks is not None:
                    new_times.extend(clocks.tolist())
            else:
                new_queue.append(entry)
                if index < n_times:
                    new_times.append(times[index])
                    index += 1
        self.queue = new_queue
        self.queue_times = new_times
        self._segments = 0
        self._segment_extra = 0

    def __repr__(self) -> str:
        return f"Arc({self.id}: {self.source} -> {self.target}, queued={self.queued_tuples()})"


class Box:
    """A placed operator: identity plus wiring plus run-time statistics."""

    def __init__(self, box_id: str, operator: Operator):
        self.id = box_id
        self.operator = operator
        # input_arcs[port] -> arc ; output_arcs[port] -> list of arcs (fan-out copies)
        self.input_arcs: dict[int, Arc] = {}
        self.output_arcs: dict[int, list[Arc]] = {}
        self.tuples_in = 0
        self.tuples_out = 0
        self.busy_time = 0.0
        # Sum/count of (completion clock - enqueue clock) per processed
        # tuple: the measured T_B of Section 7.1 ("T_B can be measured
        # and recorded by each box and would implicitly include any
        # queuing time").
        self.latency_sum = 0.0
        self.latency_count = 0

    @property
    def average_time(self) -> float:
        """Measured average per-tuple time through this box (T_B)."""
        if self.latency_count == 0:
            return 0.0
        return self.latency_sum / self.latency_count

    @property
    def selectivity(self) -> float:
        """Observed output/input ratio (1.0 until the box has seen input)."""
        if self.tuples_in == 0:
            return 1.0
        return self.tuples_out / self.tuples_in

    def queued(self) -> int:
        """Total tuples waiting on the box's input arcs (segment-aware)."""
        return sum(arc.queued_tuples() for arc in self.input_arcs.values())

    def __repr__(self) -> str:
        return f"Box({self.id}: {self.operator.describe()})"


def _parse_endpoint(spec: str | tuple[str, int]) -> tuple[str, int | str]:
    """Normalize an endpoint spec.

    Accepted forms: ``"in:streamname"``, ``"out:streamname"``,
    ``"boxid"`` (port 0), ``("boxid", port)``.
    """
    if isinstance(spec, tuple):
        box_id, port = spec
        return (box_id, int(port))
    if spec.startswith("in:"):
        return ("in", spec[3:])
    if spec.startswith("out:"):
        return ("out", spec[4:])
    return (spec, 0)


class QueryNetwork:
    """A loop-free directed graph of operator boxes (Figure 1).

    Build with :meth:`add_box` and :meth:`connect`; validate with
    :meth:`validate` (the engine calls it on load).  Execution lives in
    :mod:`repro.core.engine` (scheduled) and :func:`execute`
    (synchronous, for semantics tests).

    ``revision`` counts the changes to the network's shape: every
    mutator below bumps it, and whatever is derived from the shape (the
    memoized :meth:`topological_order`, an engine's caches, an Aurora*
    system's placement views) revalidates against it instead of waiting
    to be told.
    """

    def __init__(self, name: str = "query"):
        self.name = name
        self.boxes: dict[str, Box] = {}
        self.arcs: dict[str, Arc] = {}
        self.inputs: dict[str, list[Arc]] = {}
        self.outputs: dict[str, Arc] = {}
        self.revision = 0
        self._arc_counter = 0
        self._order: tuple[int, list[str]] = (-1, [])

    def touch(self) -> None:
        """Declare a change the mutators did not see: an operator
        swapped in place, or an edit made straight to the dicts."""
        self.revision += 1

    # -- construction ------------------------------------------------------

    def add_box(self, box_id: str, operator: Operator) -> Box:
        """Add an operator box; ids must be unique within the network."""
        self.revision += 1
        if box_id in self.boxes:
            raise QueryError(f"duplicate box id {box_id!r}")
        if box_id in ("in", "out"):
            raise QueryError("'in' and 'out' are reserved endpoint names")
        box = Box(box_id, operator)
        self.boxes[box_id] = box
        return box

    def connect(
        self,
        source: str | tuple[str, int],
        target: str | tuple[str, int],
        connection_point: bool = False,
        retention: int = 1000,
        arc_id: str | None = None,
    ) -> Arc:
        """Wire an arc from ``source`` to ``target``.

        Endpoint syntax: ``"in:name"`` / ``"out:name"`` for external
        streams, ``"boxid"`` or ``("boxid", port)`` for boxes.  Set
        ``connection_point=True`` to attach historical storage and make
        the arc a valid stabilization point for load management.
        """
        self.revision += 1
        src = _parse_endpoint(source)
        dst = _parse_endpoint(target)
        if arc_id is None:
            arc_id = f"arc{self._arc_counter}"
            self._arc_counter += 1
        if arc_id in self.arcs:
            raise QueryError(f"duplicate arc id {arc_id!r}")
        cp = ConnectionPoint(retention=retention) if connection_point else None
        arc = Arc(arc_id, src, dst, connection_point=cp)
        self._attach(arc)
        self.arcs[arc_id] = arc
        return arc

    def _attach(self, arc: Arc) -> None:
        src_kind, src_ref = arc.source
        dst_kind, dst_ref = arc.target
        if src_kind == "out" or dst_kind == "in":
            raise QueryError(f"arc {arc.id}: 'out' cannot be a source / 'in' a target")
        if src_kind == "in":
            self.inputs.setdefault(str(src_ref), []).append(arc)
        else:
            box = self._box(src_kind)
            port = int(src_ref)
            if not 0 <= port < box.operator.n_outputs:
                raise QueryError(
                    f"arc {arc.id}: box {box.id!r} has no output port {port}"
                )
            box.output_arcs.setdefault(port, []).append(arc)
        if dst_kind == "out":
            name = str(dst_ref)
            if name in self.outputs:
                raise QueryError(f"duplicate output stream {name!r}")
            self.outputs[name] = arc
        else:
            box = self._box(dst_kind)
            port = int(dst_ref)
            if not 0 <= port < box.operator.arity:
                raise QueryError(
                    f"arc {arc.id}: box {box.id!r} has no input port {port}"
                )
            if port in box.input_arcs:
                raise QueryError(
                    f"arc {arc.id}: box {box.id!r} input port {port} already connected"
                )
            box.input_arcs[port] = arc

    def _box(self, box_id: str) -> Box:
        try:
            return self.boxes[box_id]
        except KeyError:
            raise QueryError(f"unknown box {box_id!r}") from None

    # -- run-time rewiring (load management, Section 5.1) ---------------------

    def rewire_target(self, arc: Arc, target: str | tuple[str, int]) -> None:
        """Point an existing arc at a new consumer (box port or output).

        Used by box splitting: the arc that fed the original box is
        redirected to the router Filter, and so on.  Queued tuples stay
        on the arc and flow to the new consumer.  The new endpoint is
        checked before anything moves, so a rejected rewire leaves the
        network as it was.
        """
        self.revision += 1
        kind, ref = dst = _parse_endpoint(target)
        if kind == "out":
            if self.outputs.get(str(ref), arc) is not arc:
                raise QueryError(f"duplicate output stream {str(ref)!r}")
        else:
            box = self._box(str(kind))
            port = int(ref)
            if not 0 <= port < box.operator.arity:
                raise QueryError(f"box {box.id!r} has no input port {port}")
            if box.input_arcs.get(port, arc) is not arc:
                raise QueryError(f"box {box.id!r} input port {port} already connected")
        old_kind, old_ref = arc.target
        if old_kind == "out":
            del self.outputs[str(old_ref)]
        else:
            self._box(str(old_kind)).input_arcs.pop(int(old_ref), None)
        arc.target = dst
        if kind == "out":
            self.outputs[str(ref)] = arc
        else:
            box.input_arcs[port] = arc

    def rewire_source(self, arc: Arc, source: str | tuple[str, int]) -> None:
        """Attach an existing arc to a new producer (box port or input);
        checked before anything moves, like :meth:`rewire_target`."""
        self.revision += 1
        kind, ref = src = _parse_endpoint(source)
        if kind != "in":
            box = self._box(str(kind))
            port = int(ref)
            if not 0 <= port < box.operator.n_outputs:
                raise QueryError(f"box {box.id!r} has no output port {port}")
        old_kind, old_ref = arc.source
        if old_kind == "in":
            arcs = self.inputs.get(str(old_ref), [])
            if arc in arcs:
                arcs.remove(arc)
            if not arcs and str(old_ref) in self.inputs:
                del self.inputs[str(old_ref)]
        else:
            port_arcs = self._box(str(old_kind)).output_arcs.get(int(old_ref), [])
            if arc in port_arcs:
                port_arcs.remove(arc)
        arc.source = src
        if kind == "in":
            self.inputs.setdefault(str(ref), []).append(arc)
        else:
            box.output_arcs.setdefault(port, []).append(arc)

    def remove_arc(self, arc_id: str) -> None:
        """Delete an arc entirely (detaching both endpoints)."""
        self.revision += 1
        arc = self.arcs.pop(arc_id)
        kind, ref = arc.source
        if kind == "in":
            arcs = self.inputs.get(str(ref), [])
            if arc in arcs:
                arcs.remove(arc)
        else:
            port_arcs = self.boxes[str(kind)].output_arcs.get(int(ref), [])
            if arc in port_arcs:
                port_arcs.remove(arc)
        kind, ref = arc.target
        if kind == "out":
            self.outputs.pop(str(ref), None)
        else:
            self.boxes[str(kind)].input_arcs.pop(int(ref), None)

    def remove_box(self, box_id: str) -> Box:
        """Delete a box; all its arcs must have been removed or rewired."""
        self.revision += 1
        box = self._box(box_id)
        if box.input_arcs or any(box.output_arcs.values()):
            raise QueryError(f"box {box_id!r} still has connected arcs")
        return self.boxes.pop(box_id)

    # -- introspection -------------------------------------------------------

    def upstream_box(self, box_id: str) -> str | None:
        """The box feeding ``box_id``'s input port 0, or None for inputs."""
        arc = self._box(box_id).input_arcs.get(0)
        if arc is None or arc.source[0] == "in":
            return None
        return str(arc.source[0])

    def downstream_boxes(self, box_id: str) -> list[str]:
        """Boxes directly fed by any output port of ``box_id``."""
        result = []
        for arcs in self._box(box_id).output_arcs.values():
            for arc in arcs:
                if arc.target[0] != "out":
                    result.append(str(arc.target[0]))
        return result

    def topological_order(self) -> list[str]:
        """Box ids in dependency order.  Raises :class:`QueryError` on cycles.

        Memoized on :attr:`revision`; every caller gets its own list.
        """
        revision, order = self._order
        if revision == self.revision:
            return list(order)
        indegree = {box_id: 0 for box_id in self.boxes}
        for arc in self.arcs.values():
            if arc.source[0] not in ("in",) and arc.target[0] not in ("out",):
                indegree[str(arc.target[0])] += 1
        ready = deque(sorted(b for b, d in indegree.items() if d == 0))
        order = []
        while ready:
            box_id = ready.popleft()
            order.append(box_id)
            for succ in self.downstream_boxes(box_id):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self.boxes):
            cyclic = sorted(set(self.boxes) - set(order))
            raise QueryError(f"query network contains a cycle through {cyclic}")
        self._order = (self.revision, order)
        return list(order)

    def validate(self) -> None:
        """Check the network is well-formed: acyclic, fully wired."""
        self.topological_order()
        for box in self.boxes.values():
            for port in range(box.operator.arity):
                if port not in box.input_arcs:
                    raise QueryError(
                        f"box {box.id!r} input port {port} is not connected"
                    )

    def connection_points(self) -> Iterator[tuple[str, ConnectionPoint]]:
        """All (arc_id, connection_point) pairs in the network."""
        for arc in self.arcs.values():
            if arc.connection_point is not None:
                yield arc.id, arc.connection_point

    def total_queued(self) -> int:
        """Total tuples waiting on all arcs (load signal, segment-aware)."""
        return sum(arc.queued_tuples() for arc in self.arcs.values())

    def __repr__(self) -> str:
        return (
            f"QueryNetwork({self.name!r}: {len(self.boxes)} boxes, "
            f"{len(self.arcs)} arcs)"
        )


def execute(
    network: QueryNetwork,
    inputs: dict[str, Iterable[StreamTuple]],
    flush: bool = True,
) -> dict[str, list[StreamTuple]]:
    """Synchronously run a network to completion (reference executor).

    Tuples from all inputs are merged in timestamp order (ties by input
    name, then position) and pushed depth-first through the graph: each
    tuple is fully propagated before the next is admitted.  This is the
    executor used to verify operator semantics and split transparency;
    the scheduled engine (:mod:`repro.core.engine`) is the run-time
    counterpart.

    Returns a mapping of output stream name to emitted tuples.
    """
    network.validate()
    results: dict[str, list[StreamTuple]] = {name: [] for name in network.outputs}

    def propagate(arc: Arc, tup: StreamTuple) -> None:
        if not arc.push(tup):
            return  # held at a choked connection point
        arc.queue.popleft()
        kind, ref = arc.target
        if kind == "out":
            results[str(ref)].append(tup)
            return
        box = network.boxes[str(kind)]
        box.tuples_in += 1
        for out_port, emitted in box.operator.process(tup, port=int(ref)):
            box.tuples_out += 1
            for out_arc in box.output_arcs.get(out_port, []):
                propagate(out_arc, emitted)

    feed: list[tuple[float, str, int, StreamTuple]] = []
    for name, tuples in inputs.items():
        if name not in network.inputs:
            raise QueryError(f"network has no input stream {name!r}")
        for position, tup in enumerate(tuples):
            feed.append((tup.timestamp, name, position, tup))
    feed.sort(key=lambda item: (item[0], item[1], item[2]))

    for _ts, name, _pos, tup in feed:
        for arc in network.inputs[name]:
            propagate(arc, tup)

    if flush:
        for box_id in network.topological_order():
            box = network.boxes[box_id]
            for out_port, emitted in box.operator.flush():
                box.tuples_out += 1
                for out_arc in box.output_arcs.get(out_port, []):
                    propagate(out_arc, emitted)
    return results
