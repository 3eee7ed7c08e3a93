"""A single Aurora node inside an Aurora* deployment (Section 3.1).

"Each Aurora node supporting the running system will continuously
monitor its local operation, its workload, and available resources."

A node processes trains of tuples for the boxes placed on it, charging
CPU time on the simulator clock; emissions whose consumers live on
other nodes become overlay messages (batched per destination arc).
Nodes expose the load statistics the load-share daemon (Section 5)
reads, and the failure hooks the HA machinery (Section 6) drives.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.engine import claim_run, pop_head
from repro.core.query import Arc, Box
from repro.core.tuples import StreamTuple
from repro.network.overlay import Message
from repro.network.transport import MESSAGE_HEADER_BYTES, TUPLE_BYTES, train_frame_size

if TYPE_CHECKING:  # pragma: no cover
    from repro.distributed.system import AuroraStarSystem

SCHEDULING_OVERHEAD = 0.0002  # virtual seconds per scheduling decision


class timestamp_keys:
    """Sequence view of a queue's source timestamps, for
    :func:`~repro.core.engine.claim_run`: a node orders its claims by
    tuple timestamp (the engine orders by enqueue clock)."""

    __slots__ = ("_queue",)

    def __init__(self, arc: Arc):
        self._queue = arc.queue

    def __len__(self) -> int:
        return len(self._queue)

    def __getitem__(self, index: int) -> float:
        return self._queue[index].timestamp

    def __iter__(self):
        for tup in self._queue:
            yield tup.timestamp


class AuroraNode:
    """One server of the Aurora* deployment.

    Args:
        system: the owning Aurora* system.
        name: overlay address of the node.
        cpu_capacity: CPU-seconds of box work completed per virtual
            second (relative node speed).
        train_size: tuples processed per scheduling decision (each
            decision costs :data:`SCHEDULING_OVERHEAD`).
    """

    def __init__(
        self,
        system: "AuroraStarSystem",
        name: str,
        cpu_capacity: float = 1.0,
        train_size: int = 20,
    ):
        if cpu_capacity <= 0:
            raise ValueError("cpu_capacity must be positive")
        self.system = system
        self.name = name
        self.cpu_capacity = cpu_capacity
        self.train_size = train_size
        self.overlay_node = system.overlay.add_node(name)
        self.overlay_node.on("tuples", self._on_tuples)
        # Control messages (slide state transfers, split negotiation)
        # carry their effects via the migration protocol itself; the
        # handler only acknowledges receipt.
        self.overlay_node.on("control", lambda _message: None)
        # Every node answers load probes (Section 5.1's pairwise
        # interactions), whether or not it runs its own daemon.
        self.overlay_node.on("load_probe", self._on_load_probe)
        self.overlay_node.on("load_reply", lambda _message: None)
        self.busy_until = 0.0
        self.busy_time = 0.0
        self.tuples_processed = 0
        metrics = system.metrics
        self._m_tuples = metrics.counter("node.tuples_processed", node=name)
        self._m_trains = metrics.counter("node.trains", node=name)
        self._m_frames = metrics.labelled("transport.frames", "dst", src=name)
        self._m_frame_tuples = metrics.labelled("transport.tuples", "dst", src=name)
        self._m_frame_bytes = metrics.labelled("transport.bytes", "dst", src=name)
        self.failed = False
        self._work_scheduled = False

    # -- ingress --------------------------------------------------------------

    def enqueue_local(self, arc: Arc, tuples: list[StreamTuple]) -> None:
        """Queue tuples on an arc whose consumer this node hosts."""
        if self.failed:
            return
        for tup in tuples:
            arc.push(tup)
        self.kick()

    def _on_tuples(self, message: Message) -> None:
        """Handle a remote tuple batch: {"arc": arc_id, "tuples": [...]}."""
        payload = message.payload
        arc = self.system.network.arcs.get(payload["arc"])
        if arc is None:
            return  # arc was removed by a network transformation
        # The consumer may have migrated after the message was sent:
        # enqueue_arc hands the tuples to wherever it lives now.
        self.system.enqueue_arc(arc, payload["tuples"])

    # -- scheduling loop ----------------------------------------------------------

    def kick(self) -> None:
        """Ensure a work event is pending (idempotent).

        An idle node's wake-up that would be the next event is owed to
        the running callback instead (:meth:`Simulator.owe`)."""
        if self.failed or self._work_scheduled:
            return
        self._work_scheduled = True
        sim = self.system.sim
        if self.busy_until > sim.now:
            sim.schedule_at(self.busy_until, self._work)
        elif not sim.owe(self._work):
            sim.schedule_at(sim.now, self._work)

    def _choose_box(self) -> Box | None:
        """Longest-queue-first among this node's runnable boxes."""
        best: Box | None = None
        best_queued = 0
        system = self.system
        migrating = system.migrating
        boxes = system.network.boxes
        for box_id in system.hosted_boxes(self.name):
            if box_id in migrating:
                continue
            box = boxes[box_id]
            # Box.queued() without its generator: a node queues rows, never
            # columnar segments, so an arc holds len(queue) tuples.
            queued = 0
            for arc in box.input_arcs.values():
                queued += len(arc.queue)
            if queued > best_queued:
                best, best_queued = box, queued
        return best

    def _work(self) -> None:
        self._work_scheduled = False
        if self.failed:
            return
        box = self._choose_box()
        if box is None:
            return
        consumed, emissions = self._run_train(box)
        self.busy_until = self.system.sim.now + consumed
        # Emissions appear when the train finishes.
        self.system.sim.schedule_at(self.busy_until, self._complete, box, emissions)

    def _run_train(self, box: Box) -> tuple[float, list[tuple[int, StreamTuple]]]:
        """Run one train at ``box``: ``(CPU time, emissions)``.

        Tuples are claimed in maximal per-arc runs that preserve the
        scalar oldest-timestamp-first order across input arcs.  The cost
        chain is ONE running sum — the scheduling overhead, then
        ``consumed += cost`` per tuple — so virtual times are
        bit-identical to the per-tuple path; the box is booked the whole
        of it once per train, however many claims fan-in took, for the
        load-share daemon and the box-sliding cost model.
        """
        consumed = SCHEDULING_OVERHEAD
        emissions: list[tuple[int, StreamTuple]] = []
        cost = box.operator.cost_per_tuple / self.cpu_capacity
        budget = self.train_size
        tracing = self.system._tracing
        processed = 0
        lone = len(box.input_arcs) == 1
        while budget > 0:
            arc, n = claim_run(box, budget, timestamp_keys)
            if arc is None:
                break
            batch = pop_head(arc.queue, n)
            for _ in range(n):
                consumed += cost
            if tracing:
                # Coarse sim-time spans: the event-driven node charges
                # the whole train as one busy interval, so every tuple's
                # box span covers it.  Re-stamped before the kernel runs
                # so emissions inherit the child context.
                now = self.system.sim.now
                self._stamp(batch, f"box:{box.id}", now, now + consumed)
            box.tuples_in += n
            processed += n
            out = box.operator.process_batch(batch, port=int(arc.target[1]))
            emissions.extend(out)
            box.tuples_out += len(out)
            budget -= n
            if lone:
                break  # a lone arc gives all it has in one claim
        if processed:
            self.tuples_processed += processed
            self._m_tuples.inc(processed)
            self._m_trains.inc()
        box.busy_time += consumed
        box.latency_sum += consumed  # coarse T_B contribution per train
        box.latency_count += 1
        self.busy_time += consumed
        return consumed, emissions

    def _stamp(
        self, tuples: list[StreamTuple], name: str, start: float, end: float
    ) -> None:
        """Re-stamp the sampled tuples with a child span on this node."""
        span = self.system.tracer.span
        for tup in tuples:
            if tup.trace is not None:
                tup.trace = span(tup.trace, name, node=self.name, start=start, end=end)

    def _complete(self, box: Box, emissions: list[tuple[int, StreamTuple]]) -> None:
        if self.failed:
            return
        self.route_emissions(box, emissions)  # wakes the next train

    # -- egress -----------------------------------------------------------------

    def route_emissions(self, box: Box, emissions: list[tuple[int, StreamTuple]]) -> None:
        """Deliver a train's outputs: locally, to applications, or remotely.

        Remote tuples are batched per destination arc into one message
        (size = header + n * tuple payload, see :func:`train_frame_size`).
        """
        remote_batches: dict[tuple[str, str], list[StreamTuple]] = {}
        for out_port, tup in emissions:
            for arc in box.output_arcs.get(out_port, []):
                kind, ref = arc.target
                if kind == "out":
                    self.system.deliver_output(str(ref), tup)
                    continue
                owner = self.system.place(str(kind))
                if owner == self.name:
                    arc.push(tup)
                else:
                    remote_batches.setdefault((owner, arc.id), []).append(tup)
        self.kick()
        if not remote_batches:
            return
        system = self.system
        tracing = system._tracing
        batches = remote_batches.items()
        if len(batches) > 1:
            batches = sorted(batches)
        for (owner, arc_id), tuples in batches:
            size = train_frame_size(len(tuples), TUPLE_BYTES, MESSAGE_HEADER_BYTES)
            self._m_frames[owner].inc()
            self._m_frame_tuples[owner].inc(len(tuples))
            self._m_frame_bytes[owner].inc(size)
            if tracing:
                now = system.sim.now
                self._stamp(tuples, f"transport:{self.name}->{owner}", now, now)
            message = Message("tuples", {"arc": arc_id, "tuples": tuples}, size=size)
            system.overlay.send(self.name, owner, message)

    def drain_box(self, box_id: str) -> None:
        """Synchronously process everything queued at one box (flush path).

        Charges the CPU time but performs the work immediately; used by
        end-of-stream flushing and by migration stabilization
        ("any tuples that are queued within S are allowed to drain off").
        """
        box = self.system.network.boxes[box_id]
        while box.queued() > 0:
            _consumed, emissions = self._run_train(box)
            self.route_emissions(box, emissions)

    def _on_load_probe(self, message: Message) -> None:
        """Answer a neighbor's load probe with this node's backlog."""
        period = float(message.payload.get("period", 1.0))
        reply = Message(
            "load_reply",
            {"from": self.name, "load": self.queued_work() / period},
            size=24,
        )
        self.system.overlay.send(self.name, str(message.payload["from"]), reply)
        self.system.control_messages += 1

    # -- load signals ---------------------------------------------------------------

    def queued_work(self) -> float:
        """CPU-seconds of work queued at this node's boxes."""
        total = 0.0
        for box_id in self.system.hosted_boxes(self.name):
            box = self.system.network.boxes[box_id]
            total += box.queued() * box.operator.cost_per_tuple
        return total / self.cpu_capacity

    # -- failures (Section 6) ----------------------------------------------------------

    def fail(self) -> None:
        """Crash-stop: stop processing and drop all traffic."""
        self.failed = True
        self.overlay_node.fail()

    def recover(self) -> None:
        self.failed = False
        self.overlay_node.recover()
        self.busy_until = self.system.sim.now
        self.kick()

    def __repr__(self) -> str:
        state = "failed" if self.failed else "up"
        return f"AuroraNode({self.name}, cpu={self.cpu_capacity:g}, {state})"
