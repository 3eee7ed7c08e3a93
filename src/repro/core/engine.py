"""The single-node Aurora run-time (Section 2.3, Figure 3).

Wires together the router, scheduler (with train scheduling), storage
manager, QoS monitor and load shedder around a query network.  Time is
virtual: the engine's clock advances by the CPU cost of the work it
performs (box costs scaled by CPU capacity, scheduling overhead, spill
I/O), so latency measurements are deterministic.

The engine runs standalone (these semantics are exercised directly by
tests and example applications) and embedded in a simulated distributed
node (:mod:`repro.distributed.node`), where the surrounding simulator
owns the clock.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Any, Callable, Iterable, Union

import numpy as np

from repro.core.catalog import LocalCatalog
from repro.core.columnar import (
    ColumnarTrain,
    OutputBuffer,
    accumulate_chain,
    running_max,
    sequential_sum,
)
from repro.core.fusion import FusedChain, find_runs
from repro.core.qos import QoSMonitor, QoSSpec
from repro.core.query import Arc, Box, QueryNetwork
from repro.core.scheduler import RoundRobinScheduler, Scheduler
from repro.core.shedder import LoadShedder
from repro.core.storage import StorageManager
from repro.core.tuples import StreamTuple
from repro.obs.registry import Counter, MetricsRegistry
from repro.obs.trace import TraceColumn, Tracer


class AuroraEngine:
    """A scheduled, QoS-monitored executor for one query network.

    Args:
        network: the query network to run (validated on construction).
        scheduler: box-selection discipline (default round-robin).
        train_size: max tuples processed per scheduling decision
            ("how many of the tuples ... waiting in front of a given
            box to process").
        push_trains: if True, a train is pushed through downstream
            boxes within the same scheduling step ("how far to push
            them toward the output") — Section 2.3's train scheduling.
        cpu_capacity: CPU seconds of box work completed per virtual
            second (node speed; 1.0 = costs are wall-clock).
        scheduling_overhead: virtual seconds charged per scheduling
            decision (this is what train scheduling amortizes).
        batch_execution: if True (the default), a train is dequeued,
            processed (via :meth:`Operator.process_batch`) and emitted
            as one batch, amortizing the per-tuple interpreter overhead
            the same way train scheduling amortizes decision overhead.
            False keeps the per-tuple scalar path (same semantics; the
            perf benchmark compares the two).
        qos_specs: per-output-stream QoS specifications.
        storage: storage manager (buffer/spill accounting).
        shedder: load shedder; None disables shedding.
        load_window: horizon (virtual seconds) over which queued work is
            compared against capacity to compute the load factor.
        metrics: observability registry (:mod:`repro.obs`).  Enabled by
            default; all updates are batch-aware (one increment per
            train), so the cost is a handful of handle calls per
            scheduling decision.  Pass ``MetricsRegistry(enabled=False)``
            to strip even that.
        tracer: trace-span recorder; None (the default) disables
            per-tuple lineage tracing entirely.
        fusion: if True (the default), superbox compilation
            (:mod:`repro.core.fusion`) fuses maximal linear runs of
            stateless single-in/single-out boxes: each run is scheduled
            as one unit and a train is threaded through every
            constituent kernel in a single pass, with no interior queue
            traffic.  Per-constituent statistics, obs counters and trace
            spans are still emitted exactly as the unfused network would
            emit them.  Effective only with ``push_trains`` (the fused
            pass is the compiled form of the train push).
        columnar: if True (the default), trains admitted via
            :meth:`push_train` stay in struct-of-arrays form
            (:class:`~repro.core.columnar.ColumnarTrain`) end to end:
            whole segments ride the arcs, compiled operators run as
            masked column kernels, and materialization back to
            ``StreamTuple`` lists happens only at barriers (opaque
            boxes, fan-in, connection points, delivery reads).  A
            tracer and a load shedder are not barriers: admission and
            sampling are decided once per train, and every box stamps
            spans for the sampled rows only.  Accounting stays
            bit-identical to the list path — clock/latency chains use
            strictly sequential ``ufunc.accumulate``.  Effective only
            with ``batch_execution``; per-tuple ``push`` simply keeps
            those tuples on the classic list path (same results, no
            columnar speedup).
    """

    def __init__(
        self,
        network: QueryNetwork,
        scheduler: Scheduler | None = None,
        train_size: int = 10,
        push_trains: bool = True,
        cpu_capacity: float = 1.0,
        scheduling_overhead: float = 0.0005,
        qos_specs: dict[str, QoSSpec] | None = None,
        storage: StorageManager | None = None,
        shedder: LoadShedder | None = None,
        load_window: float = 1.0,
        batch_execution: bool = True,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        fusion: bool = True,
        columnar: bool = True,
    ):
        network.validate()
        if train_size < 1:
            raise ValueError("train_size must be >= 1")
        if cpu_capacity <= 0:
            raise ValueError("cpu_capacity must be positive")
        self.network = network
        self.scheduler = scheduler or RoundRobinScheduler()
        self.train_size = train_size
        self.push_trains = push_trains
        self.cpu_capacity = cpu_capacity
        self.scheduling_overhead = scheduling_overhead
        self.qos_monitor = QoSMonitor(qos_specs)
        self.storage = storage or StorageManager()
        self.shedder = shedder
        self.load_window = load_window
        self.batch_execution = batch_execution
        self.catalog = LocalCatalog()

        # Observability (repro.obs): metrics stay on by default — every
        # update below is per-train, never per-tuple — and tracing is
        # opt-in via the tracer's sampling knob.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        self._tracing = tracer is not None and tracer.active
        self.storage.bind_metrics(self.metrics)
        self._m_tuples = self.metrics.counter("engine.tuples_processed")
        self._m_emitted = self.metrics.counter("engine.tuples_emitted")
        self._m_train_hist = self.metrics.histogram("engine.train.tuples")
        self._m_decisions: dict[str, Counter] = {}
        self._m_box_in: dict[str, Counter] = {}
        self._m_box_out: dict[str, Counter] = {}
        self._m_ingest: dict[str, Counter] = {}
        self._m_delivered: dict[str, Counter] = {}
        self._m_shed: dict[str, Counter] = {}

        self.clock = 0.0
        self.steps = 0
        self.tuples_processed = 0
        self.fusion = fusion
        # Columnar execution rides the batch path (segments are claimed
        # as batches).
        self.columnar = columnar and batch_execution
        self.outputs: dict[str, Union[list[StreamTuple], OutputBuffer]] = {}
        self.box_order: list[str] = []
        # Public scheduler-facing indexes (see the scheduler module):
        # queued_counts holds only boxes with queued tuples, so choice
        # is O(non-empty boxes); topo_position breaks ties the same way
        # a topological scan would.
        self.topo_position: dict[str, int] = {}
        self.queued_counts: dict[str, int] = {}
        self._reach_cache: dict[str, frozenset[str]] = {}
        self._input_reach_cache: dict[str, frozenset[str]] = {}
        self._runs: dict[str, list[str]] = {}
        self._fused: dict[str, FusedChain] = {}
        self._fused_member: dict[str, str] = {}
        self.invalidate_caches()

    # -- topology caches -----------------------------------------------------

    def invalidate_caches(self) -> None:
        """Recompute topology-derived state after a network change.

        Load management (Section 5) rewrites the network at run time —
        box sliding and splitting add/remove boxes — so everything
        derived from topology must be refreshed: reachability,
        scheduling order, the queued-count index, the output buffers
        (streams a rewrite removed drop their buffers instead of
        lingering) and the superbox fusion overlay, which re-runs from
        scratch (defuse + refuse) so direct network mutations are
        honored.  The scheduler is notified last, so cursors cannot
        point past a shrunken ``box_order``.
        """
        self.box_order = self.network.topological_order()
        self.topo_position = {b: i for i, b in enumerate(self.box_order)}
        self._reach_cache.clear()
        self._input_reach_cache.clear()
        # Columnar engines deliver whole segments, so their buffers are
        # lazily materializing; list-path engines keep plain lists.
        fresh = OutputBuffer if self.columnar else list
        self.outputs = {
            name: (self.outputs[name] if name in self.outputs else fresh())
            for name in self.network.outputs
        }
        self.queued_counts = {}
        for box_id, box in self.network.boxes.items():
            queued = box.queued()
            if queued:
                self.queued_counts[box_id] = queued
        # Boxes *removed* by a rewrite (a merge, a replica retirement)
        # must not linger in the per-box obs handle caches: under
        # elastic churn replica ids are never reused, so stale handles
        # would accumulate without bound.  The registry keeps the
        # underlying counters, so lifetime totals survive the prune.
        live = self.network.boxes
        for cache in (self._m_box_in, self._m_box_out, self._m_decisions):
            for stale in [box_id for box_id in cache if box_id not in live]:
                del cache[stale]
        # Superbox compilation (repro.core.fusion).  The run map is kept
        # even with fusion off: train pushing and flushing visit a run's
        # members consecutively in both modes, so fused and unfused
        # execution stay clock-identical tuple for tuple.
        self._runs = {}
        self._fused = {}
        self._fused_member = {}
        if self.push_trains:
            for run in find_runs(self.network):
                self._runs[run[0]] = run
                if self.fusion:
                    chain = FusedChain([self.network.boxes[b] for b in run])
                    self._fused[run[0]] = chain
                    for member in run:
                        self._fused_member[member] = run[0]
        hook = getattr(self.scheduler, "network_changed", None)
        if hook is not None:
            hook(self)

    def defuse(self, box_id: str | None = None) -> None:
        """Dissolve superboxes — all of them, or the one containing ``box_id``.

        Safe at any scheduling boundary: fusion never removed the
        constituent boxes or arcs from the network (it only redirects
        execution), a fused train always runs through every stage so
        interior arcs are empty, and any queued tuples already sit on
        the superbox input — the head box's own input arc.  Dropping
        the overlay therefore restores per-box execution with no state
        hand-back, and the run is still *pushed* member-by-member in
        the fused order, so even the virtual clock is unaffected.
        """
        if box_id is None:
            self._fused = {}
            self._fused_member = {}
            return
        head = self._fused_member.get(box_id)
        if head is None:
            return
        chain = self._fused.pop(head)
        for stage in chain.stages:
            self._fused_member.pop(stage.id, None)

    def fused_runs(self) -> list[list[str]]:
        """Box-id runs currently compiled into superboxes."""
        return [chain.member_ids() for chain in self._fused.values()]

    def outputs_reachable_from(self, box_id: str) -> frozenset[str]:
        """Output stream names downstream of ``box_id``."""
        cached = self._reach_cache.get(box_id)
        if cached is not None:
            return cached
        reached: set[str] = set()
        stack = [box_id]
        seen = set()
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            box = self.network.boxes[current]
            for arcs in box.output_arcs.values():
                for arc in arcs:
                    kind, ref = arc.target
                    if kind == "out":
                        reached.add(str(ref))
                    else:
                        stack.append(str(kind))
        result = frozenset(reached)
        self._reach_cache[box_id] = result
        return result

    def outputs_reachable_from_input(self, input_name: str) -> frozenset[str]:
        """Output stream names downstream of a network input."""
        cached = self._input_reach_cache.get(input_name)
        if cached is not None:
            return cached
        reached: set[str] = set()
        for arc in self.network.inputs.get(input_name, []):
            kind, ref = arc.target
            if kind == "out":
                reached.add(str(ref))
            else:
                reached |= self.outputs_reachable_from(str(kind))
        result = frozenset(reached)
        self._input_reach_cache[input_name] = result
        return result

    # -- observability handle caches ------------------------------------------

    def _counter_for(
        self, cache: dict[str, Counter], name: str, label: str, value: str
    ) -> Counter:
        handle = cache.get(value)
        if handle is None:
            handle = cache[value] = self.metrics.counter(name, **{label: value})
        return handle

    def record_shed(self, input_name: str, count: int = 1) -> None:
        """Account shedder drops at an input (called by the shedder)."""
        self._counter_for(
            self._m_shed, "engine.shed.dropped", "input", input_name
        ).inc(count)

    # -- ingestion -------------------------------------------------------------

    def push(self, input_name: str, tup: StreamTuple) -> bool:
        """Admit one tuple on a named input stream.

        The clock advances to the tuple's timestamp if that is in the
        future (sources run in real time).  Returns False if the load
        shedder dropped the tuple.
        """
        if input_name not in self.network.inputs:
            raise KeyError(f"engine network has no input {input_name!r}")
        self.clock = max(self.clock, tup.timestamp)
        if self.shedder is not None and not self.shedder.admit(self, input_name):
            return False
        self._counter_for(
            self._m_ingest, "engine.ingest.tuples", "input", input_name
        ).inc()
        if self._tracing:
            # Ingestion is authoritative: stamp a fresh context for
            # sampled tuples and clear any stale one left over from a
            # prior engine run over the same tuple objects.
            tup.trace = self.tracer.start_trace(
                f"source:{input_name}", at=tup.timestamp
            )
        for arc in self.network.inputs[input_name]:
            self._enqueue(arc, tup)
        return True

    def _admit(
        self, input_name: str, timestamps: np.ndarray
    ) -> tuple[np.ndarray | None, TraceColumn | None]:
        """Shedder admission and trace sampling for one offered train.

        Both observers decide once per train.  Returns ``(keep,
        traces)``: the shedder's keep-mask over the offered rows (None
        when all are admitted) and the root trace contexts of the
        sampled rows, positioned among the *admitted* rows — only those
        are offered to the sampler, as on the per-tuple path.
        """
        keep = None
        if self.shedder is not None:
            keep = self.shedder.admit_train(self, input_name, len(timestamps))
            if keep is not None:
                timestamps = timestamps[keep]
        traces = None
        if self._tracing:
            traces = self.tracer.start_train(f"source:{input_name}", timestamps)
        return keep, traces

    def _note_ingested(self, input_name: str, arc: Arc, n: int) -> None:
        """Account ``n`` tuples just enqueued on an input arc.  No-op for
        zero: like per-tuple ``push``, an input whose tuples were all
        shed (or that was offered none) exports no ingest series."""
        if not n:
            return
        target = arc.target[0]
        if target != "out":
            target = str(target)
            self.queued_counts[target] = self.queued_counts.get(target, 0) + n
        self._counter_for(
            self._m_ingest, "engine.ingest.tuples", "input", input_name
        ).inc(n)

    def push_train(self, input_name: str, train: ColumnarTrain) -> int:
        """Admit a whole columnar train on a named input stream.

        The columnar fast path: the train is enqueued as ONE segment —
        no per-tuple queue traffic at all — with per-tuple enqueue
        clocks computed by a running max (bit-identical to ``push()``'s
        ``clock = max(clock, timestamp)`` chain, since max is exact
        selection).  A shedder drops rows through one keep-mask (the
        clock still advances over every offered row) and a tracer stamps
        the sampled rows' root contexts on a twin of the train: the
        caller's train is never mutated, and contexts it already carries
        are dropped — ingestion is authoritative.  Falls back to
        :meth:`push_many` whenever a barrier applies at ingestion:
        columnar mode off, input fan-out, or a connection point on the
        arc (history recording is per-tuple).
        """
        if input_name not in self.network.inputs:
            raise KeyError(f"engine network has no input {input_name!r}")
        n = len(train)
        if n == 0:
            return 0
        arcs = self.network.inputs[input_name]
        if (
            not self.columnar
            or len(arcs) != 1
            or arcs[0].connection_point is not None
        ):
            return self.push_many(input_name, train.to_tuples())
        clocks = running_max(self.clock, train.timestamps)
        self.clock = float(clocks[-1])
        keep, traces = self._admit(input_name, train.timestamps)
        if keep is not None:
            train = train.select(keep)
            clocks = clocks[keep]
            n = len(train)
            if n == 0:
                return 0
        if traces is not None or train.traces is not None:
            train = train.with_traces(traces)
        arcs[0].append_train(train, clocks)
        self._note_ingested(input_name, arcs[0], n)
        return n

    def push_many(self, input_name: str, tuples: Iterable[StreamTuple]) -> int:
        """Admit a batch; returns the number of tuples admitted."""
        if isinstance(tuples, ColumnarTrain):
            return self.push_train(input_name, tuples)
        if input_name not in self.network.inputs:
            raise KeyError(f"engine network has no input {input_name!r}")
        arcs = self.network.inputs[input_name]
        if not (
            self.batch_execution
            and len(arcs) == 1
            and arcs[0].connection_point is None
        ):
            admitted = 0
            for tup in tuples:
                if self.push(input_name, tup):
                    admitted += 1
            return admitted
        # Fast path: same per-tuple clock/stamp semantics as push(),
        # with the arc and queue lookups hoisted out of the loop.
        arc = arcs[0]
        queue = arc.queue
        queue_times = arc.queue_times
        if self.shedder is not None or self._tracing:
            tuples = list(tuples)
            if not tuples:
                return 0
            timestamps = np.fromiter(
                (tup.timestamp for tup in tuples), np.float64, len(tuples)
            )
            clocks = running_max(self.clock, timestamps)
            self.clock = float(clocks[-1])
            keep, traces = self._admit(input_name, timestamps)
            if keep is not None:
                tuples = [tup for tup, kept in zip(tuples, keep.tolist()) if kept]
                clocks = clocks[keep]
            if self._tracing:
                # Ingestion is authoritative: clear any stale context
                # left over from a prior engine run over the same tuple
                # objects, then stamp the sampled ones.
                for tup in tuples:
                    tup.trace = None
                if traces is not None:
                    for row, ctx in zip(traces.rows.tolist(), traces.contexts()):
                        tuples[row].trace = ctx
            queue.extend(tuples)
            queue_times.extend(clocks.tolist())
            admitted = len(tuples)
        else:
            clock = self.clock
            admitted = 0
            for tup in tuples:
                if tup.timestamp > clock:
                    clock = tup.timestamp
                queue.append(tup)
                queue_times.append(clock)
                admitted += 1
            self.clock = clock
        arc.tuples_transferred += admitted
        self._note_ingested(input_name, arc, admitted)
        return admitted

    def _enqueue(self, arc: Arc, tup: StreamTuple) -> None:
        if arc.push(tup):
            arc.queue_times.append(self.clock)
            target = arc.target[0]
            if target != "out":
                target = str(target)
                self.queued_counts[target] = self.queued_counts.get(target, 0) + 1

    def _drop_queued(self, box_id: str, n: int) -> None:
        """Account ``n`` tuples consumed at a box in the queued index."""
        counts = self.queued_counts
        left = counts.get(box_id, 0) - n
        if left > 0:
            counts[box_id] = left
        else:
            counts.pop(box_id, None)

    # -- execution ---------------------------------------------------------------

    def step(self) -> float:
        """One scheduling decision.  Returns virtual seconds consumed (0 if idle)."""
        box_id = self.scheduler.choose(self)
        if box_id is None:
            return 0.0
        self._counter_for(
            self._m_decisions, "engine.scheduler.decisions", "box", box_id
        ).inc()
        self.clock += self.scheduling_overhead
        consumed = self.scheduling_overhead
        consumed += self._run_train(box_id)
        if self.push_trains:
            consumed += self._push_downstream(box_id)
        io = self.storage.rebalance(self.network)
        self.clock += io
        consumed += io
        self.steps += 1
        if self.shedder is not None and self.steps % 50 == 0:
            self.shedder.update(self)
        return consumed

    def _run_train(self, box_id: str, limit: int | None = None) -> float:
        """Process up to ``train_size`` tuples at one box (or superbox)."""
        budget = self.train_size if limit is None else limit
        chain = self._fused.get(box_id)
        if chain is not None:
            return self._run_train_fused(chain, budget)
        box = self.network.boxes[box_id]
        in_before = box.tuples_in
        out_before = box.tuples_out
        if self.batch_execution:
            consumed = self._run_train_batched(box, budget)
        else:
            consumed = self._run_train_scalar(box, budget)
        # Batch-aware accounting: one update set per train, identical
        # totals on the scalar and batched paths.
        n = box.tuples_in - in_before
        if n:
            self._drop_queued(box_id, n)
            self._train_obs(box_id, n, box.tuples_out - out_before)
        return consumed

    def _train_obs(self, box_id: str, n: int, emitted: int) -> None:
        """The per-train obs update set for one (logical) box."""
        self._counter_for(
            self._m_box_in, "engine.box.tuples_in", "box", box_id
        ).inc(n)
        if emitted:
            self._counter_for(
                self._m_box_out, "engine.box.tuples_out", "box", box_id
            ).inc(emitted)
            self._m_emitted.inc(emitted)
        self._m_tuples.inc(n)
        self._m_train_hist.observe(n)

    def _run_train_scalar(self, box: Box, budget: int) -> float:
        """The per-tuple reference path: one full engine round per tuple."""
        consumed = 0.0
        tracing = self._tracing
        while budget > 0:
            arc = self._oldest_input_arc(box)
            if arc is None:
                break
            port = int(arc.target[1])
            read_cost = self.storage.charge_consume(arc)
            self.clock += read_cost
            consumed += read_cost
            tup = arc.queue.popleft()
            enqueued_at = arc.queue_times.popleft() if arc.queue_times else self.clock
            cost = box.operator.cost_per_tuple / self.cpu_capacity
            self.clock += cost
            consumed += cost
            box.busy_time += cost
            box.tuples_in += 1
            self.tuples_processed += 1
            if tracing and tup.trace is not None:
                # Re-stamp before process() so emissions inherit the
                # child context (derive() copies the trace field).
                tup.trace = self.tracer.span(
                    tup.trace, f"box:{box.id}",
                    start=self.clock - cost, end=self.clock,
                )
            for out_port, emitted in box.operator.process(tup, port=port):
                box.tuples_out += 1
                self._emit(box, out_port, emitted)
            box.latency_sum += self.clock - enqueued_at
            box.latency_count += 1
            budget -= 1
        return consumed

    def _run_train_batched(self, box: Box, budget: int) -> float:
        """Process a train as first-class batches.

        Each iteration claims a maximal run of tuples that the scalar
        path would have consumed from the same arc (so consumption order
        across input arcs is preserved exactly), dequeues it in one
        slice, charges storage and cost/latency in one accounting pass
        (clock and latency chains stay bit-identical to the scalar
        path's incremental sums), runs ``process_batch`` once and emits
        whole per-arc lists.  The one granularity change: a train's
        emissions are enqueued downstream with the train-end clock
        rather than per-tuple intermediate clocks (see
        docs/architecture.md).
        """
        consumed = 0.0
        operator = box.operator
        cost = operator.cost_per_tuple / self.cpu_capacity
        clock = self.clock
        while budget > 0:
            seg_arc = self._normalize_segments(box)
            if seg_arc is not None:
                self.clock = clock
                took, extra = self._consume_columnar(box, seg_arc, budget)
                clock = self.clock
                consumed += extra
                budget -= took
                continue
            arc, n = self._claim_run(box, budget)
            if arc is None:
                break
            # Charge storage against the pre-pop queue length: the
            # scalar path tests ``len(queue) <= spilled`` before each
            # popleft, so the batch charge must see the same lengths.
            read_cost, first_read = self.storage.charge_consume_batch(arc, n)
            queue = arc.queue
            if n == len(queue):
                batch = list(queue)
                queue.clear()
            else:
                popleft = queue.popleft
                batch = [popleft() for _ in range(n)]
            queue_times = arc.queue_times
            timed = min(n, len(queue_times))
            if timed == len(queue_times):
                times = list(queue_times)
                queue_times.clear()
            else:
                pop_time = queue_times.popleft
                times = [pop_time() for _ in range(timed)]
            latency = 0.0
            tracing = self._tracing
            if first_read >= n and timed == n and not tracing:
                # Common case: no spilled reads, timestamps in lockstep.
                for enqueued_at in times:
                    clock += cost
                    consumed += cost
                    latency += clock - enqueued_at
            else:
                per_read = self.storage.read_cost
                for i in range(n):
                    if i >= first_read:
                        clock += per_read
                        consumed += per_read
                    enqueued_at = times[i] if i < timed else clock
                    clock += cost
                    consumed += cost
                    latency += clock - enqueued_at
                    if tracing:
                        tup = batch[i]
                        if tup.trace is not None:
                            # Same span, same clocks, as the scalar path
                            # records for this tuple; re-stamped before
                            # process_batch() so emissions inherit it.
                            tup.trace = self.tracer.span(
                                tup.trace, f"box:{box.id}",
                                start=clock - cost, end=clock,
                            )
            self.clock = clock
            box.busy_time += n * cost
            box.tuples_in += n
            box.latency_sum += latency
            box.latency_count += n
            self.tuples_processed += n
            emissions = operator.process_batch(batch, port=int(arc.target[1]))
            box.tuples_out += len(emissions)
            self._emit_batch(box, emissions)
            budget -= n
        self.clock = clock
        return consumed

    def _claim_run(self, box: Box, budget: int) -> tuple[Arc | None, int]:
        """The arc the scalar path would consume from next, and how many
        consecutive head tuples it would take from it before switching
        arcs (capped by ``budget``).

        Replicates :meth:`_oldest_input_arc`'s selection rule: the first
        arc (in port order) whose head enqueue time is strictly smaller
        than any earlier arc's and no larger than any later arc's.
        Delegates to the backend-agnostic :func:`claim_run`, keyed on
        enqueue clocks.
        """
        return claim_run(box, budget, _enqueue_keys)

    def _normalize_segments(self, box: Box) -> Arc | None:
        """Prepare ``box``'s arcs for a claim; the columnar arc, if any.

        Returns the single input arc when it holds only columnar
        segments (the columnar claim path applies).  At barriers —
        fan-in (multi-arc claims interleave per-tuple) or a queue mixing
        plain tuples with segments — segments are expanded in place and
        None is returned, so the classic claim proceeds with identical
        per-tuple enqueue clocks and train boundaries.
        """
        input_arcs = box.input_arcs
        if len(input_arcs) == 1:
            arc = next(iter(input_arcs.values()))
            if not arc._segments:
                return None
            if arc._segments == len(arc.queue):
                return arc
            arc.materialize_segments()
            return None
        for arc in input_arcs.values():
            if arc._segments:
                arc.materialize_segments()
        return None

    def _dequeue_segments(
        self, arc: Arc, n: int
    ) -> tuple[ColumnarTrain, np.ndarray]:
        """Dequeue exactly ``n`` tuples of columnar segments from ``arc``.

        Splits the last segment at the train budget boundary (the
        unclaimed tail goes back as the new head), so claim sizes — and
        therefore step counts and the virtual clock — match the list
        path exactly.  Returns the combined train and its per-tuple
        enqueue clocks.
        """
        head = arc.pop_segment()
        count = len(head)
        if count > n:
            head, tail = head.split(n)
            arc.replace_head_segment(tail)
            return head, head.enqueue_clocks  # type: ignore[return-value]
        if count == n:
            return head, head.enqueue_clocks  # type: ignore[return-value]
        parts = [head]
        while count < n:
            seg = arc.pop_segment()
            if count + len(seg) > n:
                take, rest = seg.split(n - count)
                arc.replace_head_segment(rest)
                parts.append(take)
                count = n
            else:
                parts.append(seg)
                count += len(seg)
        train = ColumnarTrain.concat(parts)
        times = np.concatenate([p.enqueue_clocks for p in parts])
        return train, times

    def _stamp_spans(
        self,
        box: Box,
        batch: ColumnarTrain | list[StreamTuple],
        ends: np.ndarray,
        cost: float,
    ) -> ColumnarTrain | list[StreamTuple]:
        """Record ``box:<id>`` spans for the sampled rows of one claim.

        ``ends`` is the clock chain the columnar runners already
        accumulate (row i is done at ``ends[i]`` and started ``cost``
        earlier — the floats the row loop passes to ``tracer.span``).
        A train is re-stamped as a twin carrying the child column, so
        the kernel's emissions inherit it; a row batch (a fused chain
        past an opaque stage) is re-stamped tuple by tuple.
        """
        name = f"box:{box.id}"
        if isinstance(batch, ColumnarTrain):
            traces = batch.traces
            return batch.with_traces(
                self.tracer.span_block(traces, name, ends[traces.rows], cost)
            )
        span = self.tracer.span
        for tup, end in zip(batch, ends.tolist()):
            if tup.trace is not None:
                tup.trace = span(tup.trace, name, start=end - cost, end=end)
        return batch

    def _consume_columnar(
        self, box: Box, arc: Arc, budget: int
    ) -> tuple[int, float]:
        """One columnar claim at a (non-fused) box.

        The accounting twin of one ``_run_train_batched`` iteration:
        identical claim size, and clock/latency/consumed advanced by
        strictly sequential ``add.accumulate`` chains — the same float
        operations in the same order as the per-tuple Python loop.
        Returns ``(tuples_taken, virtual_time_consumed)``; taking zero
        means a spill barrier materialized the arc and the caller should
        re-claim on the list path.
        """
        n = min(budget, arc.queued_tuples())
        spilled = self.storage.spilled_on(arc)
        if spilled and arc.queued_tuples() - spilled < n:
            # Spilled reads interleave per-tuple charges into the clock
            # chain; that exactness lives on the list path.
            arc.materialize_segments()
            return 0, 0.0
        train, times = self._dequeue_segments(arc, n)
        operator = box.operator
        cost = operator.cost_per_tuple / self.cpu_capacity
        # Inlined accumulate_chain/sequential_sum — bit-identical to the
        # list path's per-tuple ``clock += cost; latency += delta`` loop.
        chain = np.empty(n + 1, dtype=np.float64)
        chain[0] = self.clock
        chain[1:] = cost
        np.add.accumulate(chain, out=chain)
        chain = chain[1:]
        deltas = chain - times
        np.add.accumulate(deltas, out=deltas)
        latency = float(deltas[-1])
        self.clock = float(chain[-1])
        if self._tracing and train.traces is not None:
            train = self._stamp_spans(box, train, chain, cost)
        # The scheduler only needs a positive work signal, not the exact
        # float chain (no contract compares step() returns across paths).
        consumed = n * cost
        box.busy_time += n * cost
        box.tuples_in += n
        box.latency_sum += latency
        box.latency_count += n
        self.tuples_processed += n
        port = int(arc.target[1])
        if operator.supports_columnar:
            train_emissions = operator.process_columnar(train, port=port)
            out_count = 0
            for _p, out_train in train_emissions:
                out_count += len(out_train)
            box.tuples_out += out_count
            self._emit_columnar(box, train_emissions)
        else:
            # Operator barrier (stateful or opaque): materialize at the
            # claim and run the exact-equivalent list batch kernel.
            emissions = operator.process_batch(train.to_tuples(), port=port)
            box.tuples_out += len(emissions)
            self._emit_batch(box, emissions)
        return n, consumed

    def _oldest_input_arc(self, box: Box) -> Arc | None:
        """The input arc whose head tuple was enqueued earliest."""
        best: Arc | None = None
        best_time = float("inf")
        for arc in box.input_arcs.values():
            if not arc.queue:
                continue
            head_time = arc.queue_times[0] if arc.queue_times else 0.0
            if head_time < best_time:
                best, best_time = arc, head_time
        return best

    def _run_train_fused(self, chain: FusedChain, budget: int) -> float:
        """One train through a superbox: claimed once at the head,
        threaded through every stage, emitted from the tail.

        Interior arcs see no traffic at all — no deque pushes, no
        ``queue_times`` stamping, no claim bookkeeping, no storage
        charges (interior arcs are empty by construction, and
        unspilled-arc charges are no-ops) — while the virtual clock,
        per-stage statistics, obs counters and trace spans advance in
        exactly the sums and order the unfused member-by-member train
        push produces.
        """
        head = chain.head
        arc = self._oldest_input_arc(head)
        if arc is None or budget <= 0:
            return 0.0
        if self.batch_execution:
            if arc._segments:
                if arc._segments == len(arc.queue):
                    n = min(budget, arc.queued_tuples())
                    spilled = self.storage.spilled_on(arc)
                    if not spilled or arc.queued_tuples() - spilled >= n:
                        return self._run_train_fused_columnar(chain, arc, budget)
                # Mixed queue or spill barrier: expand and take the
                # list path (identical clocks and train boundaries).
                arc.materialize_segments()
            return self._run_train_fused_batched(chain, arc, budget)
        return self._run_train_fused_scalar(chain, arc, budget)

    def _run_train_fused_columnar(
        self, chain: FusedChain, arc: Arc, budget: int
    ) -> float:
        """One columnar train through a superbox: claimed once, threaded
        through the compiled column kernels, emitted from the tail.

        Per-stage accounting follows ``_run_train_fused_batched`` with
        the per-tuple Python loops replaced by sequential
        ``add.accumulate`` chains (bit-identical clock/latency floats).
        A stage without a columnar kernel materializes the train once
        and the remaining stages run their list kernels — transparent
        per-stage fallback.
        """
        consumed = 0.0
        clock = self.clock
        stages = chain.stages
        columnar_kernels = chain.columnar_kernels
        list_kernels = chain.interior_kernels
        head = stages[0]
        last = len(stages) - 1
        n = min(budget, arc.queued_tuples())
        train, times = self._dequeue_segments(arc, n)
        self._drop_queued(head.id, n)
        batch: ColumnarTrain | list[StreamTuple] = train
        columnar = True
        processed = 0
        stage_start = clock
        # Hot loop: numpy entry points and engine attributes hoisted to
        # locals (each stage is a handful of array ops; attribute lookup
        # is a measurable fraction at small train sizes).
        empty = np.empty
        acc = np.add.accumulate
        capacity = self.cpu_capacity
        tracing = self._tracing
        box_in = self._m_box_in
        box_out = self._m_box_out
        m_emitted = self._m_emitted
        m_tuples = self._m_tuples
        hist_observe = self._m_train_hist.observe
        new_counter = self.metrics.counter
        for index, box in enumerate(stages):
            count = len(batch)
            if count == 0:
                break
            cost = box.operator.cost_per_tuple / capacity
            # Inlined accumulate_chain/sequential_sum (this loop is the
            # hottest accounting path): the strictly sequential
            # ``add.accumulate`` chains stay bit-identical to the
            # per-tuple ``clock += cost`` / ``latency += delta`` loops.
            chain_arr = empty(count + 1, dtype=np.float64)
            chain_arr[0] = clock
            chain_arr[1:] = cost
            acc(chain_arr, out=chain_arr)
            chain_arr = chain_arr[1:]
            if index == 0:
                deltas = chain_arr - times
            else:
                # Interior stages: logically enqueued at the previous
                # stage's train-end clock (the _emit_batch stamp).
                deltas = chain_arr - stage_start
            acc(deltas, out=deltas)
            latency = float(deltas[-1])
            clock = float(chain_arr[-1])
            if tracing and (not columnar or batch.traces is not None):
                batch = self._stamp_spans(box, batch, chain_arr, cost)
            # step() returns only feed the idle check; the exact float
            # chain is not part of the accounting contract.
            consumed += count * cost
            box.busy_time += count * cost
            box.tuples_in += count
            box.latency_sum += latency
            box.latency_count += count
            processed += count
            if index == last:
                self.clock = clock
                if columnar and chain.tail_columnar:
                    train_emissions = box.operator.process_columnar(batch, port=0)
                    out_count = 0
                    for _p, out_train in train_emissions:
                        out_count += len(out_train)
                    box.tuples_out += out_count
                    self._emit_columnar(box, train_emissions)
                else:
                    if columnar:
                        batch = batch.to_tuples()
                    emissions = box.operator.process_batch(batch, port=0)
                    out_count = len(emissions)
                    box.tuples_out += out_count
                    self._emit_batch(box, emissions)
            else:
                if columnar:
                    kernel = columnar_kernels[index]
                    if kernel is not None:
                        out_batch: ColumnarTrain | list[StreamTuple] = kernel(batch)
                    else:
                        out_batch = list_kernels[index](batch.to_tuples())
                        columnar = False
                else:
                    out_batch = list_kernels[index](batch)
                out_count = len(out_batch)
                box.tuples_out += out_count
                batch = out_batch
                stage_start = clock
            # _train_obs inlined with hoisted handles (same update set,
            # same counters — only the dispatch overhead is gone).
            box_id = box.id
            in_c = box_in.get(box_id)
            if in_c is None:
                in_c = box_in[box_id] = new_counter(
                    "engine.box.tuples_in", box=box_id
                )
            in_c.inc(count)
            if out_count:
                out_c = box_out.get(box_id)
                if out_c is None:
                    out_c = box_out[box_id] = new_counter(
                        "engine.box.tuples_out", box=box_id
                    )
                out_c.inc(out_count)
                m_emitted.inc(out_count)
            m_tuples.inc(count)
            hist_observe(count)
        self.tuples_processed += processed
        self.clock = clock
        return consumed

    def _run_train_fused_batched(
        self, chain: FusedChain, arc: Arc, budget: int
    ) -> float:
        consumed = 0.0
        clock = self.clock
        tracing = self._tracing
        stages = chain.stages
        kernels = chain.interior_kernels
        head = stages[0]
        last = len(stages) - 1
        n = min(budget, len(arc.queue))
        # Same claim/charge protocol as _run_train_batched's first (and,
        # for a single-arc box, only) iteration.
        _read_cost, first_read = self.storage.charge_consume_batch(arc, n)
        queue = arc.queue
        if n == len(queue):
            batch = list(queue)
            queue.clear()
        else:
            popleft = queue.popleft
            batch = [popleft() for _ in range(n)]
        queue_times = arc.queue_times
        timed = min(n, len(queue_times))
        if timed == len(queue_times):
            times = list(queue_times)
            queue_times.clear()
        else:
            pop_time = queue_times.popleft
            times = [pop_time() for _ in range(timed)]
        self._drop_queued(head.id, n)
        per_read = self.storage.read_cost
        stage_start = clock
        for index, box in enumerate(stages):
            count = len(batch)
            if count == 0:
                break
            cost = box.operator.cost_per_tuple / self.cpu_capacity
            latency = 0.0
            if index == 0:
                if first_read >= count and timed == count and not tracing:
                    for enqueued_at in times:
                        clock += cost
                        consumed += cost
                        latency += clock - enqueued_at
                else:
                    for i in range(count):
                        if i >= first_read:
                            clock += per_read
                            consumed += per_read
                        enqueued_at = times[i] if i < timed else clock
                        clock += cost
                        consumed += cost
                        latency += clock - enqueued_at
                        if tracing:
                            tup = batch[i]
                            if tup.trace is not None:
                                tup.trace = self.tracer.span(
                                    tup.trace, f"box:{box.id}",
                                    start=clock - cost, end=clock,
                                )
            elif not tracing:
                # Interior stages: every tuple was (logically) enqueued
                # at the previous stage's train-end clock — the stamp
                # _emit_batch would have written.
                enqueued_at = stage_start
                for _ in range(count):
                    clock += cost
                    consumed += cost
                    latency += clock - enqueued_at
            else:
                enqueued_at = stage_start
                for i in range(count):
                    clock += cost
                    consumed += cost
                    latency += clock - enqueued_at
                    tup = batch[i]
                    if tup.trace is not None:
                        tup.trace = self.tracer.span(
                            tup.trace, f"box:{box.id}",
                            start=clock - cost, end=clock,
                        )
            box.busy_time += count * cost
            box.tuples_in += count
            box.latency_sum += latency
            box.latency_count += count
            self.tuples_processed += count
            if index == last:
                self.clock = clock
                emissions = box.operator.process_batch(batch, port=0)
                out_count = len(emissions)
                box.tuples_out += out_count
                self._emit_batch(box, emissions)
            else:
                out = kernels[index](batch)
                out_count = len(out)
                box.tuples_out += out_count
                batch = out
                stage_start = clock
            self._train_obs(box.id, count, out_count)
        self.clock = clock
        return consumed

    def _run_train_fused_scalar(
        self, chain: FusedChain, arc: Arc, budget: int
    ) -> float:
        consumed = 0.0
        tracing = self._tracing
        stages = chain.stages
        last = len(stages) - 1
        head = stages[0]
        operator = head.operator
        cost = operator.cost_per_tuple / self.cpu_capacity
        # Stage 0 claims from the head's real input arc, exactly like
        # _run_train_scalar; later stages carry (tuple, emit-clock)
        # pairs instead of touching the interior arcs.
        pending: list[tuple[StreamTuple, float]] = []
        taken = 0
        emitted_count = 0
        while budget > 0 and arc.queue:
            read_cost = self.storage.charge_consume(arc)
            self.clock += read_cost
            consumed += read_cost
            tup = arc.queue.popleft()
            enqueued_at = (
                arc.queue_times.popleft() if arc.queue_times else self.clock
            )
            self.clock += cost
            consumed += cost
            head.busy_time += cost
            head.tuples_in += 1
            self.tuples_processed += 1
            if tracing and tup.trace is not None:
                tup.trace = self.tracer.span(
                    tup.trace, f"box:{head.id}",
                    start=self.clock - cost, end=self.clock,
                )
            emitted = operator.process(tup, port=0)
            for _out_port, out_tup in emitted:
                head.tuples_out += 1
                pending.append((out_tup, self.clock))
            head.latency_sum += self.clock - enqueued_at
            head.latency_count += 1
            budget -= 1
            taken += 1
            emitted_count += len(emitted)
        if taken == 0:
            return consumed
        self._drop_queued(head.id, taken)
        self._train_obs(head.id, taken, emitted_count)
        for index in range(1, last + 1):
            if not pending:
                break
            box = stages[index]
            operator = box.operator
            cost = operator.cost_per_tuple / self.cpu_capacity
            current = pending
            pending = []
            emitted_count = 0
            for tup, enqueued_at in current:
                self.clock += cost
                consumed += cost
                box.busy_time += cost
                box.tuples_in += 1
                self.tuples_processed += 1
                if tracing and tup.trace is not None:
                    tup.trace = self.tracer.span(
                        tup.trace, f"box:{box.id}",
                        start=self.clock - cost, end=self.clock,
                    )
                emitted = operator.process(tup, port=0)
                if index == last:
                    for out_port, out_tup in emitted:
                        box.tuples_out += 1
                        self._emit(box, out_port, out_tup)
                else:
                    for _out_port, out_tup in emitted:
                        box.tuples_out += 1
                        pending.append((out_tup, self.clock))
                box.latency_sum += self.clock - enqueued_at
                box.latency_count += 1
                emitted_count += len(emitted)
            self._train_obs(box.id, len(current), emitted_count)
        return consumed

    def _advance_run(self, box_id: str) -> tuple[str, float]:
        """After running ``box_id``, bring the rest of its run current.

        Returns (frontier expansion point, virtual time consumed).  A
        fused chain already ran in one pass; an unfused (or defused) run
        processes each member consecutively — the same schedule the
        fused pass uses, which keeps the two modes clock-identical even
        in fan-out topologies where the push frontier holds siblings.
        """
        run = self._runs.get(box_id)
        if run is None:
            return box_id, 0.0
        consumed = 0.0
        if box_id not in self._fused:
            boxes = self.network.boxes
            for member in run[1:]:
                if boxes[member].queued():
                    consumed += self._run_train(member)
        return run[-1], consumed

    def _push_downstream(self, box_id: str) -> float:
        """Push a train's outputs through downstream boxes (train scheduling)."""
        start, consumed = self._advance_run(box_id)
        frontier = deque(dict.fromkeys(self.network.downstream_boxes(start)))
        seen = set(frontier)
        while frontier:
            current = frontier.popleft()
            box = self.network.boxes[current]
            if box.queued() == 0:
                continue
            consumed += self._run_train(current)
            expand, extra = self._advance_run(current)
            consumed += extra
            for succ in self.network.downstream_boxes(expand):
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
        return consumed

    def _emit(self, box: Box, out_port: int, tup: StreamTuple) -> None:
        for arc in box.output_arcs.get(out_port, []):
            kind, ref = arc.target
            if kind == "out":
                if arc.push(tup):
                    arc.queue.popleft()
                    self._deliver(str(ref), tup)
            else:
                self._enqueue(arc, tup)

    def _emit_batch(self, box: Box, emissions: list[tuple[int, StreamTuple]]) -> None:
        """Route a whole train's emissions, appending per-arc lists.

        Per-port emission order is preserved (each arc is fed from a
        single source port, so per-arc queue order matches the scalar
        path).  Arcs with connection points fall back to per-tuple
        pushes — history recording, subscribers and choking are
        per-tuple affairs.
        """
        if not emissions:
            return
        groups: dict[int, list[StreamTuple]] = {}
        for out_port, tup in emissions:
            group = groups.get(out_port)
            if group is None:
                groups[out_port] = group = [tup]
            else:
                group.append(tup)
        output_arcs = box.output_arcs
        for out_port, tuples in groups.items():
            for arc in output_arcs.get(out_port, []):
                kind, ref = arc.target
                if arc.connection_point is not None:
                    for tup in tuples:
                        if kind == "out":
                            if arc.push(tup):
                                arc.queue.popleft()
                                self._deliver(str(ref), tup)
                        else:
                            self._enqueue(arc, tup)
                elif kind == "out":
                    arc.tuples_transferred += len(tuples)
                    self._deliver_batch(str(ref), tuples)
                else:
                    arc.queue.extend(tuples)
                    arc.tuples_transferred += len(tuples)
                    arc.queue_times.extend([self.clock] * len(tuples))
                    target = str(kind)
                    self.queued_counts[target] = (
                        self.queued_counts.get(target, 0) + len(tuples)
                    )

    def _emit_columnar(
        self, box: Box, emissions: list[tuple[int, ColumnarTrain]]
    ) -> None:
        """Route whole per-port sub-trains downstream as segments.

        The columnar twin of :meth:`_emit_batch`: each non-empty
        sub-train is appended to its arcs as ONE queue entry stamped
        with the train-end clock.  Connection-point arcs materialize
        here (history recording, subscribers and choking are per-tuple
        affairs); delivery to applications stays columnar and lazy.
        """
        clock = self.clock
        output_arcs = box.output_arcs
        for out_port, train in emissions:
            n = len(train)
            if n == 0:
                continue
            arcs = output_arcs.get(out_port, [])
            if len(arcs) > 1 and self._tracing and train.traces is not None:
                # A sampled tuple fanned out to several arcs is ONE
                # object on the row path, re-stamped by each consumer in
                # turn; only shared rows reproduce that lineage.
                self._emit_batch(box, [(out_port, t) for t in train.to_tuples()])
                continue
            for arc in arcs:
                kind, ref = arc.target
                if arc.connection_point is not None:
                    for tup in train.to_tuples():
                        if kind == "out":
                            if arc.push(tup):
                                arc.queue.popleft()
                                self._deliver(str(ref), tup)
                        else:
                            self._enqueue(arc, tup)
                elif kind == "out":
                    arc.tuples_transferred += n
                    self._deliver_train(str(ref), train)
                else:
                    # Read-only broadcast: every tuple in the segment is
                    # stamped with the same train-end clock.
                    arc.append_train(train, np.broadcast_to(clock, (n,)))
                    target = str(kind)
                    self.queued_counts[target] = (
                        self.queued_counts.get(target, 0) + n
                    )

    def _deliver_train(self, output_name: str, train: ColumnarTrain) -> None:
        """Deliver a whole columnar segment to an application output.

        The segment lands in the lazy :class:`OutputBuffer` unmaterialized;
        QoS latency samples are the vectorized ``clock - timestamp``
        column (elementwise — the same floats the per-tuple path records).
        """
        buffer = self.outputs[output_name]
        if isinstance(buffer, OutputBuffer):
            buffer.extend_train(train)
        else:
            buffer.extend(train.to_tuples())
        latencies = (self.clock - train.timestamps).tolist()
        self.qos_monitor.record_output_batch(output_name, latencies)
        self._counter_for(
            self._m_delivered, "engine.delivered.tuples", "stream", output_name
        ).inc(len(train))
        traces = train.traces
        if traces is not None and self._tracing:
            # Stamped with the source timestamps, like _deliver's event.
            self.tracer.event_block(
                traces, f"deliver:{output_name}", train.timestamps[traces.rows]
            )

    def _deliver(self, output_name: str, tup: StreamTuple) -> None:
        self.outputs[output_name].append(tup)
        self.qos_monitor.record_output(output_name, self.clock - tup.timestamp)
        self._counter_for(
            self._m_delivered, "engine.delivered.tuples", "stream", output_name
        ).inc()
        if self._tracing and tup.trace is not None:
            # Stamped with the tuple's source timestamp, not the engine
            # clock: the batched path delivers at train-end clock, so
            # only the timestamp is path-invariant.
            self.tracer.event(tup.trace, f"deliver:{output_name}", at=tup.timestamp)

    def _deliver_batch(self, output_name: str, tuples: list[StreamTuple]) -> None:
        self.outputs[output_name].extend(tuples)
        record = self.qos_monitor.record_output
        clock = self.clock
        for tup in tuples:
            record(output_name, clock - tup.timestamp)
        self._counter_for(
            self._m_delivered, "engine.delivered.tuples", "stream", output_name
        ).inc(len(tuples))
        if self._tracing:
            tracer = self.tracer
            for tup in tuples:
                if tup.trace is not None:
                    tracer.event(
                        tup.trace, f"deliver:{output_name}", at=tup.timestamp
                    )

    def drain_boxes(self, box_ids: Iterable[str], max_rounds: int = 1_000_000) -> int:
        """Synchronously run the given boxes until their queues are empty.

        The elasticity controller's quiesce step: before moving window
        state between replicas it drains the group (router first — the
        boxes run in topological order — then the replicas), so no
        in-flight tuple of a migrating key can reach its old owner after
        the ring changes.  Runs through :meth:`_run_train`, so queued
        counts, busy time and obs accounting stay exact.  Returns the
        number of tuples drained.
        """
        drained = 0
        for box_id in sorted(box_ids, key=lambda b: self.topo_position.get(b, 0)):
            self.defuse(box_id)
            box = self.network.boxes[box_id]
            for _ in range(max_rounds):
                queued = box.queued()
                if queued == 0:
                    break
                before = box.tuples_in
                self._run_train(box_id, limit=queued)
                if box.tuples_in == before:
                    raise RuntimeError(
                        f"drain of {box_id!r} stalled with {queued} tuples queued"
                    )
                drained += box.tuples_in - before
            else:
                raise RuntimeError(f"drain of {box_id!r} exceeded {max_rounds} rounds")
        return drained

    def run_until_idle(self, max_steps: int = 1_000_000) -> float:
        """Step until no box has queued input.  Returns time consumed."""
        consumed = 0.0
        for _ in range(max_steps):
            delta = self.step()
            if delta == 0.0:
                return consumed
            consumed += delta
        raise RuntimeError(f"engine did not go idle within {max_steps} steps")

    def flush(self) -> None:
        """End-of-stream: flush windowed boxes in topological order.

        Flush emissions are enqueued and processed like normal tuples,
        so a flushed aggregate still flows through its merge network.
        A fused run drains and flushes as one group (members back to
        back — the same schedule whether or not fusion is active), and
        flush emissions travel the same batched or scalar emit path as
        steady-state traffic, so end-of-stream accounting matches.
        """
        visited: set[str] = set()
        for box_id in self.network.topological_order():
            if box_id in visited:
                continue
            group = self._runs.get(box_id, (box_id,))
            for member in group:
                visited.add(member)
                box = self.network.boxes[member]
                # Drain anything still queued at this box first.
                while box.queued() > 0:
                    self._run_train(member, limit=box.queued())
            for member in group:
                box = self.network.boxes[member]
                emissions = box.operator.flush()
                if not emissions:
                    continue
                box.tuples_out += len(emissions)
                if self.batch_execution:
                    self._emit_batch(box, emissions)
                else:
                    for out_port, emitted in emissions:
                        self._emit(box, out_port, emitted)
        self.run_until_idle()

    # -- load signals -------------------------------------------------------------

    def queued_work(self) -> float:
        """CPU-seconds of work currently queued across all boxes."""
        total = 0.0
        for box in self.network.boxes.values():
            total += box.queued() * box.operator.cost_per_tuple
        return total / self.cpu_capacity

    def load_factor(self) -> float:
        """Queued work relative to what fits in one load window."""
        return self.queued_work() / self.load_window

    def oldest_queued_timestamp(self, box_id: str) -> float | None:
        """Source timestamp of the oldest tuple queued at ``box_id``.

        Reads the head of a columnar segment's timestamp column directly
        — QoS scheduling never forces materialization.
        """
        oldest: float | None = None
        for arc in self.network.boxes[box_id].input_arcs.values():
            if arc.queue:
                head = arc.queue[0]
                if isinstance(head, ColumnarTrain):
                    ts = float(head.timestamps[0])
                else:
                    ts = head.timestamp
                if oldest is None or ts < oldest:
                    oldest = ts
        return oldest

    def aggregate_utility(self) -> float:
        """Current importance-weighted QoS utility across outputs."""
        return self.qos_monitor.aggregate_utility()

    def __repr__(self) -> str:
        return (
            f"AuroraEngine({self.network.name!r}, clock={self.clock:.4f}, "
            f"scheduler={self.scheduler.name})"
        )


# -- backend-agnostic claim loop ---------------------------------------------
#
# Every execution backend — the virtual-time engine above, the Aurora*
# node simulation, and the real multiprocessing workers (repro.parallel)
# — consumes input arcs with the same selection rule: pick the arc whose
# head carries the smallest order key (ties to the earlier port), and
# take the maximal run of consecutive head tuples that keep winning.
# The backends differ only in what the order key *is* (the engine keys
# on enqueue clocks, the distributed planes key on source timestamps),
# so the rule lives here once, parameterized by a key view.


def _enqueue_keys(arc: Arc):
    """The engine's order keys: per-entry enqueue clocks."""
    return arc.queue_times


class timestamp_keys:
    """Sequence view of a queue's source timestamps, for :func:`claim_run`.

    Used by the backends that order claims by tuple timestamp rather
    than enqueue clock (Aurora* nodes, parallel workers).
    """

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


def claim_run(
    box: Box, budget: int, keys_of: "Callable[[Arc], Any]"
) -> tuple[Arc | None, int]:
    """The input arc a per-tuple loop would consume from next, and how
    many consecutive head tuples it would take before switching arcs
    (capped by ``budget``).

    ``keys_of(arc)`` returns a sequence of per-entry order keys aligned
    with ``arc.queue``; it may be shorter than the queue (entries
    without keys are treated as infinitely old, so the arc keeps
    winning).  Selection rule: the first arc (in port order) whose head
    key is strictly smaller than any earlier arc's and no larger than
    any later arc's.
    """
    arcs = [arc for arc in box.input_arcs.values() if arc.queue]
    if not arcs:
        return None, 0
    if len(arcs) == 1:
        arc = arcs[0]
        return arc, min(budget, len(arc.queue))
    best = None
    best_key = float("inf")
    best_index = 0
    heads = []
    for index, arc in enumerate(arcs):
        keys = keys_of(arc)
        head = keys[0] if len(keys) else 0.0
        heads.append(head)
        if head < best_key:
            best, best_key, best_index = arc, head, index
    # How long `best` keeps winning: its next head must stay strictly
    # below every earlier arc's head and at or below every later one's
    # (ties go to the earlier arc in port order).
    min_before = min(heads[:best_index], default=float("inf"))
    min_after = min(heads[best_index + 1:], default=float("inf"))
    limit = min(budget, len(best.queue))
    n = 0
    for key in islice(keys_of(best), limit):
        if key < min_before and key <= min_after:
            n += 1
        else:
            break
    if n == 0:
        # No order keys at all (tuples enqueued outside the engine):
        # the per-tuple path treats the head as infinitely old, so this
        # arc keeps winning for the whole run.
        n = limit
    return best, n
