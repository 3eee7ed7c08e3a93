"""The single-node Aurora run-time (Section 2.3, Figure 3).

Wires together the router, scheduler (with train scheduling), storage
manager, QoS monitor and load shedder around a query network.  Time is
virtual: the engine's clock advances by the CPU cost of the work it
performs (box costs scaled by CPU capacity, scheduling overhead, spill
I/O), so latency measurements are deterministic.

The engine runs standalone (these semantics are exercised directly by
tests and example applications) and embedded in a worker process of the
parallel plane (:mod:`repro.parallel.worker`), which runs one engine
over its cut of the network and keeps only the routing.
"""

from __future__ import annotations

from collections import deque
from itertools import compress, islice
from typing import Any, Callable, Iterable, Sequence, Union

import numpy as np

from repro.core.catalog import LocalCatalog
from repro.core.columnar import ColumnarTrain, OutputBuffer, running_max
from repro.core.fusion import FusedChain, build_chains
from repro.core.qos import QoSMonitor, QoSSpec
from repro.core.query import Arc, Box, QueryNetwork
from repro.core.scheduler import RoundRobinScheduler, Scheduler
from repro.core.shedder import LoadShedder
from repro.core.storage import StorageManager
from repro.core.tuples import StreamTuple
from repro.obs.registry import Counter, MetricsRegistry
from repro.obs.trace import Tracer

DRAIN_ROUNDS = 1_000_000  # trains drain_boxes runs at one box before giving up


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
            perf benchmark compares the two).  The encoding of a train
            is chosen by what the caller pushes: a
            :class:`~repro.core.columnar.ColumnarTrain` admitted via
            :meth:`push_train` stays in struct-of-arrays form end to end
            (whole segments ride the arcs, compiled operators run as
            masked column kernels) and materializes back to
            ``StreamTuple`` lists only at barriers — opaque boxes,
            fan-in, connection points, delivery reads; a tracer and a
            load shedder are not barriers.  Accounting stays
            bit-identical to the list path (strictly sequential
            ``ufunc.accumulate`` chains).
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
            emit them.  Effective only with ``push_trains`` **and**
            ``batch_execution`` (the fused pass is the compiled form of
            the train push; the per-tuple path runs box by box).

    ``decision_log`` is None unless a caller sets it to a list; then the
    engine appends what :func:`repro.reference.replay` needs to re-run
    the schedule tuple by tuple — ``("ingest", input, offered rows,
    admitted mask or None)``, ``("step", scheduling_overhead)``,
    ``("train", box id, budget, superbox member ids or None,
    cpu_capacity)``, ``("rebalance", memory_budget, write_cost,
    read_cost)`` closing a step, ``("flush", box ids)`` for a flush
    group's operators, ``("until", when)`` for an idle clock jump and
    ``("revision", revision)`` when the network's shape changes.
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
        self._m_ingest = self.metrics.labelled("engine.ingest.tuples", "input")
        self._m_delivered = self.metrics.labelled("engine.delivered.tuples", "stream")
        self._m_shed = self.metrics.labelled("engine.shed.dropped", "input")

        self.clock = 0.0
        self.steps = 0
        self.tuples_processed = 0
        self.fusion = fusion
        # Views derived from the network's shape, current as of the
        # engine's last public call (``_sync``): schedulers read them
        # inside ``step()``.
        self.outputs: dict[str, Union[list[StreamTuple], OutputBuffer]] = {}
        self.box_order: list[str] = []
        # The queued index (see the scheduler module): queued_counts
        # holds only the boxes with queued tuples and queued_total their
        # sum, both kept current by every enqueue and claim the engine
        # makes, so a decision, a train push and the idle test cost what
        # is queued, not what exists; topo_position breaks ties the way
        # a topological scan would.
        self.topo_position: dict[str, int] = {}
        self.queued_counts: dict[str, int] = {}
        self.queued_total = 0
        # What _sync compiles per box and per input (_Route, _hop).
        self._routes: dict[str, _Route] = {}
        self._input_hops: dict[str, tuple[_Hop, ...]] = {}
        self._reach_cache: dict[str, frozenset[str]] = {}
        self._input_reach_cache: dict[str, frozenset[str]] = {}
        self._runs: dict[str, FusedChain] = {}
        self._fused: dict[str, FusedChain] = {}
        self.decision_log: list[tuple] | None = None
        self._revision = -1
        self._sync()

    @property
    def columnar(self) -> bool:
        """Whether pushed trains stay columnar: they ride the batch path
        (segments are claimed as batches)."""
        return self.batch_execution

    # -- topology caches -----------------------------------------------------

    def invalidate_caches(self) -> None:
        """Force :meth:`_sync` after a change that bypassed the engine
        and the network's mutators: an edit made straight to the
        network's ``boxes`` / ``arcs`` dicts, or tuples enqueued on an
        arc behind the engine's back (``arc.push``) — the queued index
        is what every scheduler and the idle test read, and this call is
        how an outside enqueue enters it.  Nothing that rewrites through
        the mutators or ingests through the engine needs to call this."""
        self.network.touch()
        self._sync()

    def _sync(self) -> None:
        """Recompute topology-derived state if the network has changed.

        Load management (Section 5) rewrites the network at run time —
        box sliding and splitting add/remove boxes — and every mutator
        bumps ``network.revision``.  The public calls that read or
        change queue state compare it on entry, so a rewrite needs no
        bracket: everything derived from topology is refreshed before
        the next tuple moves — reachability, scheduling order, the
        queued index (rebuilt from ``Box.queued()``, its from-scratch
        definition), the per-box routes and per-input hops a train
        follows, the output buffers (streams a rewrite removed drop
        their buffers instead of lingering) and the superbox fusion
        overlay, which is recompiled from scratch.  The
        scheduler is notified last, so cursors cannot point past a
        shrunken ``box_order``.
        """
        revision = self.network.revision
        if self._revision == revision:
            return
        if self.decision_log is not None:
            self.decision_log.append(("revision", revision))
        self.box_order = self.network.topological_order()
        self._revision = revision
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
        # Routes are rebuilt over the live boxes only, so the obs handles
        # they hold never outlive a box a rewrite *removed* (under
        # elastic churn replica ids are never reused).  The registry
        # keeps the underlying counters: lifetime totals survive, and a
        # surviving box re-binds its handles on first use.
        self.queued_counts = {}
        self._routes = {}
        for box_id, box in self.network.boxes.items():
            queued = box.queued()
            if queued:
                self.queued_counts[box_id] = queued
            self._routes[box_id] = _Route(box)
        self.queued_total = sum(self.queued_counts.values())
        self._input_hops = {
            name: tuple(map(_hop, arcs)) for name, arcs in self.network.inputs.items()
        }
        # Superbox compilation (repro.core.fusion).  Every run is
        # compiled even with fusion off: train pushing and flushing visit
        # a run's members consecutively in both modes, so fused and
        # unfused execution stay clock-identical tuple for tuple.
        # ``_fused`` holds the runs that execute as superboxes: all of
        # them or none (the fused pass is a train pass).
        self._runs = build_chains(self.network) if self.push_trains else {}
        fuse = self.fusion and self.batch_execution
        self._fused = dict(self._runs) if fuse else {}
        hook = getattr(self.scheduler, "network_changed", None)
        if hook is not None:
            hook(self)

    @property
    def idle(self) -> bool:
        """True when nothing is queued at any box: one test of the index."""
        if self._revision != self.network.revision:  # _sync's test, inlined
            self._sync()
        return not self.queued_counts

    def fused_runs(self) -> list[list[str]]:
        """Box-id runs currently compiled into superboxes."""
        self._sync()
        return [chain.member_ids() for chain in self._fused.values()]

    def outputs_reachable_from(self, box_id: str) -> frozenset[str]:
        """Output stream names downstream of ``box_id``."""
        self._sync()
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
        self._sync()
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

    # -- observability handles -------------------------------------------------

    def _bind(self, route: "_Route", slot: str) -> Counter:
        """First use of one of a route's per-box counters: a box that
        never runs (or never emits, or is never scheduled) exports no
        series, so the handles cannot be made at ``_sync``."""
        handle = self.metrics.counter(_Route.METRICS[slot], box=route.box.id)
        setattr(route, slot, handle)
        return handle

    def record_shed(self, input_name: str, count: int = 1) -> None:
        """Account shedder drops at an input (called by the shedder)."""
        self._m_shed[input_name].inc(count)

    # -- ingestion -------------------------------------------------------------

    def push(self, input_name: str, tup: StreamTuple) -> bool:
        """Admit one tuple on a named input stream.

        The clock advances to the tuple's timestamp if that is in the
        future (sources run in real time).  Returns False if the load
        shedder dropped the tuple.
        """
        if self._revision != self.network.revision:  # _sync's test, inlined
            self._sync()
        hops = self._input_hops.get(input_name)
        if hops is None:
            raise KeyError(f"engine network has no input {input_name!r}")
        self.clock = max(self.clock, tup.timestamp)
        admitted = self.shedder is None or self.shedder.admit(self, input_name)
        if self.decision_log is not None:
            self.decision_log.append(
                ("ingest", input_name, (tup,), None if admitted else (False,))
            )
        if not admitted:
            return False
        self._m_ingest[input_name].inc()
        if self._tracing:
            # Ingestion is authoritative: stamp a fresh context for
            # sampled tuples and clear any stale one left over from a
            # prior engine run over the same tuple objects.
            tup.trace = self.tracer.start_trace(
                f"source:{input_name}", at=tup.timestamp
            )
        self._emit({0: hops}, ((0, [tup]),))
        return True

    def _train_arc(self, input_name: str) -> Arc | None:
        """The arc a whole train offered on ``input_name`` is enqueued on
        in one go, or None at an ingestion barrier: input fan-out, a
        connection point (history recording is per-tuple) or a
        pass-through stream (delivered at ingestion, tuple by tuple)."""
        hops = self._input_hops.get(input_name)
        if hops is None:
            raise KeyError(f"engine network has no input {input_name!r}")
        if len(hops) != 1:
            return None
        arc, kind, _ref, connection_point = hops[0]
        if connection_point is not None or kind == "out":
            return None
        return arc

    def _note_ingested(self, input_name: str, arc: Arc, n: int) -> None:
        """Account ``n`` tuples just enqueued on an input arc.  No-op for
        zero: like per-tuple ``push``, an input whose tuples were all
        shed (or that was offered none) exports no ingest series."""
        if not n:
            return
        counts, target = self.queued_counts, arc.target[0]
        counts[target] = counts.get(target, 0) + n
        self.queued_total += n
        self._m_ingest[input_name].inc(n)

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
        are dropped — ingestion is authoritative.  Both observers decide
        once per train, the shedder first: only admitted rows are
        offered to the sampler, as on the per-tuple path.  Falls back to
        :meth:`push_many` over the train's rows whenever a barrier
        applies at ingestion: ``batch_execution`` off, or no single arc
        takes whole trains (:meth:`_train_arc`).
        """
        self._sync()
        arc = self._train_arc(input_name)
        n = len(train)
        if n == 0:
            return 0
        if arc is None or not self.columnar:
            return self.push_many(input_name, train.to_tuples())
        clocks = running_max(self.clock, train.timestamps)
        self.clock = float(clocks[-1])
        keep = None if self.shedder is None else self.shedder.admit_train(
            self, input_name, n
        )
        if self.decision_log is not None:
            self.decision_log.append((
                "ingest", input_name, train.to_tuples(),
                None if keep is None else keep.tolist(),
            ))
        if keep is not None:
            train = train.select(keep)
            clocks = clocks[keep]
            n = len(train)
            if n == 0:
                return 0
        traces = None
        if self._tracing:
            traces = self.tracer.start_train(f"source:{input_name}", train.timestamps)
        if traces is not None or train.traces is not None:
            train = train.with_traces(traces)
        arc.append_train(train, clocks)
        self._note_ingested(input_name, arc, n)
        return n

    def push_many(self, input_name: str, tuples: Iterable[StreamTuple]) -> int:
        """Admit a batch; returns the number of tuples admitted.

        A :class:`ColumnarTrain` is :meth:`push_train`'s.  A row list
        takes the per-tuple :meth:`push` only at an ingestion barrier
        (:meth:`_train_arc`, ``batch_execution`` off).  Everywhere else
        it is admitted in one call that decides exactly what ``push``
        tuple by tuple would: the enqueue clocks are the running max
        over every *offered* row, a shedder makes the same draws in the
        same order (:meth:`LoadShedder.admit_train`), a tracer offers the
        admitted rows in order, and one ``ingest`` entry goes to the
        decision log.
        """
        if isinstance(tuples, ColumnarTrain):
            return self.push_train(input_name, tuples)
        if self._revision != self.network.revision:  # _sync's test, inlined
            self._sync()
        arc = self._train_arc(input_name)
        if arc is None or not self.batch_execution:
            return sum(self.push(input_name, tup) for tup in tuples)
        rows = tuples if isinstance(tuples, list) else list(tuples)
        if not rows:
            return 0
        clock = self.clock
        times: list[float] = []
        stamp = times.append
        for tup in rows:
            if tup.timestamp > clock:
                clock = tup.timestamp
            stamp(clock)
        self.clock = clock
        keep = None if self.shedder is None else self.shedder.admit_train(
            self, input_name, len(rows)
        )
        mask = None if keep is None else keep.tolist()
        if self.decision_log is not None:
            self.decision_log.append(("ingest", input_name, rows, mask))
        if mask is not None:
            rows = list(compress(rows, mask))
            times = list(compress(times, mask))
        if self._tracing:
            # Ingestion is authoritative, as in push().
            start_trace = self.tracer.start_trace
            source = f"source:{input_name}"
            for tup in rows:
                tup.trace = start_trace(source, at=tup.timestamp)
        n = len(rows)
        arc.queue.extend(rows)
        arc.queue_times.extend(times)
        arc.tuples_transferred += n
        self._note_ingested(input_name, arc, n)
        return n

    # -- execution ---------------------------------------------------------------
    #
    # One mechanism (Section 2.3): claim a train at the scheduled box and
    # push it toward the output.  A box is a run of one stage and a row
    # list is the degenerate encoding of a train, so there is one train
    # runner next to the per-tuple reference; only the accounting fold
    # (_fold_rows / _fold_train) and the enqueue leaf onto a plain arc
    # (_emit for rows, _hand_off for a train) exist once per encoding.

    def step(self) -> float:
        """One scheduling decision.  Returns virtual seconds consumed (0 if idle)."""
        if self._revision != self.network.revision:  # _sync's test, inlined
            self._sync()
        box_id = self.scheduler.choose(self)
        if box_id is None:
            return 0.0
        route = self._routes[box_id]
        (route.decisions or self._bind(route, "decisions")).inc()
        log = self.decision_log
        if log is not None:
            log.append(("step", self.scheduling_overhead))
        self.clock += self.scheduling_overhead
        consumed = self.scheduling_overhead
        consumed += self._run_train(box_id)
        if self.push_trains:
            consumed += self._push_downstream(box_id)
        storage = self.storage
        if log is not None or not storage.settled(self.queued_total):
            io = storage.rebalance(self.network, self.queued_total)
            if log is not None:
                log.append((
                    "rebalance", storage.memory_budget, storage.write_cost,
                    storage.read_cost,
                ))
            self.clock += io
            consumed += io
        self.steps += 1
        if self.shedder is not None and self.steps % 50 == 0:
            self.shedder.update(self)
        return consumed

    def _run_train(self, box_id: str, limit: int | None = None) -> float:
        """Process up to ``train_size`` tuples at one box (or superbox).

        Claims are made at the head stage — more than one when fan-in
        interleaves arcs — and every claimed batch is threaded through
        all stages in one pass (:meth:`_thread`), which tallies each
        stage's tuples in and out as it computes them.  Obs and the
        queued index are updated once per train from those tallies (the
        claims of a fan-in train add up into one train), so every
        execution mode exports identical totals.
        """
        budget = self.train_size if limit is None else limit
        routes = self._routes
        route = routes[box_id]
        chain = self._fused.get(box_id)
        stages = chain.stages if chain is not None else route.stages
        if self.decision_log is not None:
            self.decision_log.append((
                "train", box_id, budget,
                None if chain is None else chain.member_ids(), self.cpu_capacity,
            ))
        # Per stage, the tuples in and out of this train (_thread tallies).
        ins = [0] * len(stages)
        outs = [0] * len(stages)
        if self.batch_execution:
            # The scheduler only needs a positive work signal, not the
            # exact float chain (no contract compares step() returns).
            start = self.clock
            while budget > 0:
                claim = self._claim(route, budget)
                if claim is None:
                    break
                port, batch, times, first_read = claim
                budget -= len(batch)
                self._thread(stages, chain, batch, times, first_read, port, ins, outs)
                if route.lone is not None:
                    break  # a lone arc gives all it has in one claim
            consumed = self.clock - start
        else:
            consumed = self._run_train_scalar(route, budget, ins, outs)
        for box, n, emitted in zip(stages, ins, outs):
            if not n:
                continue
            stage = routes[box.id]
            (stage.tuples_in or self._bind(stage, "tuples_in")).inc(n)
            if emitted:
                (stage.tuples_out or self._bind(stage, "tuples_out")).inc(emitted)
                self._m_emitted.inc(emitted)
            self._m_tuples.inc(n)
            self._m_train_hist.observe(n)
        # The queued index: the head stage consumed ins[0] at box_id.
        counts = self.queued_counts
        had = counts.get(box_id, 0)
        if had > ins[0]:
            counts[box_id] = had - ins[0]
            self.queued_total -= ins[0]
        elif had:
            del counts[box_id]
            self.queued_total -= had
        return consumed

    def _run_train_scalar(
        self, route: "_Route", budget: int, ins: list[int], outs: list[int]
    ) -> float:
        """The per-tuple reference path: one full engine round per tuple."""
        box = route.box
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
            ins[0] += 1
            self.tuples_processed += 1
            if tracing and tup.trace is not None:
                # Re-stamp before process() so emissions inherit the
                # child context (derive() copies the trace field).
                tup.trace = self.tracer.span(
                    tup.trace, f"box:{box.id}",
                    start=self.clock - cost, end=self.clock,
                )
            emissions = box.operator.process(tup, port=port)
            box.tuples_out += len(emissions)
            outs[0] += len(emissions)
            self._emit(route.ports, [(out_port, [out]) for out_port, out in emissions])
            box.latency_sum += self.clock - enqueued_at
            box.latency_count += 1
            budget -= 1
        return consumed

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

    def _claim(
        self, route: "_Route", budget: int
    ) -> tuple[int, ColumnarTrain | list[StreamTuple], Any, int] | None:
        """Claim the next batch at a box, or None when nothing is queued.

        Returns ``(input port, batch, enqueue clocks, first_read)``.  A lone
        input arc holding only columnar segments yields a train (clocks
        as an array).  At the barriers — fan-in (multi-arc claims
        interleave per tuple), a queue mixing rows with segments, a
        claim reaching into the spilled tail (spilled reads interleave
        per-tuple charges into the clock chain) — segments are expanded
        in place and the claim is the maximal run of rows the per-tuple
        path would have consumed from one arc before switching
        (:func:`claim_run`); ``first_read`` is the index of the first
        row read back from spill (``len(batch)`` if none).
        """
        lone = route.lone
        if lone is not None:
            arc, port = lone
            if arc._segments:
                if arc._segments == len(arc.queue):
                    queued = arc.queued_tuples()
                    n = min(budget, queued)
                    if queued - self.storage.spilled_on(arc) >= n:
                        train, times = self._dequeue_segments(arc, n)
                        return port, train, times, n
                arc.materialize_segments()
            n = len(arc.queue)  # claim_run's lone-arc rule
            if n > budget:
                n = budget
        else:
            box = route.box
            for arc in box.input_arcs.values():
                arc.materialize_segments()
            arc, n = claim_run(box, budget, _enqueue_keys)
            if arc is None:
                return None
            port = int(arc.target[1])
        if not n:
            return None
        # Charge storage against the pre-pop queue length: the per-tuple
        # path tests ``len(queue) <= spilled`` before each popleft, so
        # the batch charge must see the same lengths.
        _read_cost, first_read = self.storage.charge_consume_batch(arc, n)
        batch = pop_head(arc.queue, n)
        times = pop_head(arc.queue_times, min(n, len(arc.queue_times)))
        return port, batch, times, first_read

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
        parts: list[ColumnarTrain] = []
        count = 0
        while count < n:
            seg = arc.pop_segment()
            if count + len(seg) > n:
                seg, rest = seg.split(n - count)
                arc.replace_head_segment(rest)
            parts.append(seg)
            count += len(seg)
        if len(parts) == 1:
            return seg, seg.enqueue_clocks  # type: ignore[return-value]
        times = np.concatenate([p.enqueue_clocks for p in parts])
        return ColumnarTrain.concat(parts), times

    def _thread(
        self,
        stages: Sequence[Box],
        chain: FusedChain | None,
        batch: ColumnarTrain | list[StreamTuple],
        times: Any,
        first_read: int,
        port: int,
        ins: list[int],
        outs: list[int],
    ) -> None:
        """Thread one claimed batch through every stage; emit from the tail.

        Per stage: fold the clock/latency chain (the encoding's own
        fold — the same float additions in the same order either way),
        stamp spans for sampled rows, then run the column kernel or —
        where there is none, or it declines the claim — materialize
        once and run the row kernel from there on.  Interior
        arcs of a superbox see no traffic at all (no deque pushes, no
        ``queue_times`` stamping, no storage charges), while the clock,
        per-stage statistics and trace spans advance in exactly the sums
        and order the unfused member-by-member train push produces.
        Each stage's tuples in and out are added to ``ins`` / ``outs``
        (by stage index) where they are computed, for
        :meth:`_run_train` to account once per train.  ``chain``'s
        kernel lists are read here, at call time: profilers swap entries
        after construction.
        """
        tracing = self._tracing
        last = len(stages) - 1
        for index, box in enumerate(stages):
            count = len(batch)
            if count == 0:
                return
            operator = box.operator
            cost = operator.cost_per_tuple / self.cpu_capacity
            columnar = isinstance(batch, ColumnarTrain)
            if columnar:
                self.clock, latency, ends = _fold_train(self.clock, cost, count, times)
                if tracing and batch.traces is not None:
                    batch = self._stamp_spans(box, batch, ends, cost)
            else:
                sampled = False  # any sampled row?  (a scan: claims are short)
                if tracing:
                    for tup in batch:
                        if tup.trace is not None:
                            sampled = True
                            break
                self.clock, latency, ends = _fold_rows(
                    self.clock, cost, count, times, first_read,
                    self.storage.read_cost, sampled,
                )
                if sampled:
                    self._stamp_spans(box, batch, ends, cost)
            box.busy_time += count * cost
            box.tuples_in += count
            ins[index] += count
            box.latency_sum += latency
            box.latency_count += count
            self.tuples_processed += count
            if index == last:
                break
            kernel = chain.columnar_kernels[index] if columnar else None
            out = None if kernel is None else kernel(batch)
            if out is None:  # no column kernel here, or it declined
                if columnar:
                    batch = batch.to_tuples()
                out = chain.interior_kernels[index](batch)
            batch = out
            box.tuples_out += len(batch)
            outs[index] += len(batch)
            # Interior hand-off: every tuple is logically enqueued at
            # this stage's train-end clock (the stamp _emit would
            # have written), and nothing spills in between.
            first_read = len(batch)
            times = (
                self.clock if isinstance(batch, ColumnarTrain)
                else [self.clock] * first_read
            )
        emissions = (
            operator.process_columnar(batch, port=port)
            if columnar and operator.supports_columnar else None
        )
        if emissions is not None:
            emitted = sum(len(train) for _port, train in emissions)
        else:
            # Operator barrier (stateful or opaque, or the column kernel
            # declined this claim): materialize and run the
            # exact-equivalent row kernel.
            if columnar:
                batch = batch.to_tuples()
            rows = operator.process_batch(batch, port=port)
            emitted = len(rows)
            if operator.n_outputs == 1:  # every emission is on port 0
                emissions = ((0, [tup for _port, tup in rows]),)
            else:
                emissions = _by_port(rows)
        box.tuples_out += emitted
        outs[last] += emitted
        self._emit(self._routes[box.id].ports, emissions)

    def _stamp_spans(
        self, box: Box, batch: ColumnarTrain | list[StreamTuple], ends: Any, cost: float
    ) -> ColumnarTrain | list[StreamTuple]:
        """Record ``box:<id>`` spans for the sampled rows of one claim.

        ``ends`` is the clock chain the fold already accumulated (row i
        is done at ``ends[i]`` and started ``cost`` earlier — the floats
        the reference path passes to ``tracer.span``): an array for a
        train, a list for rows.  A train is re-stamped as a twin
        carrying the child column, so the kernel's emissions inherit it;
        rows are re-stamped tuple by tuple, before the kernel runs, for
        the same reason.
        """
        name = f"box:{box.id}"
        if isinstance(batch, ColumnarTrain):
            traces = batch.traces
            return batch.with_traces(
                self.tracer.span_block(traces, name, ends[traces.rows], cost)
            )
        span = self.tracer.span
        for tup, end in zip(batch, ends):
            if tup.trace is not None:
                tup.trace = span(tup.trace, name, start=end - cost, end=end)
        return batch

    def _advance_run(self, box_id: str) -> tuple[str, float]:
        """After running ``box_id``, the head of a run, bring the rest of
        the run current.

        Returns (frontier expansion point, virtual time consumed).  A
        fused chain already ran in one pass; an unfused run
        processes each member consecutively — the same schedule the
        fused pass uses, which keeps the two modes clock-identical even
        in fan-out topologies where the push frontier holds siblings.
        """
        run = self._runs[box_id]
        consumed = 0.0
        if box_id not in self._fused:
            counts = self.queued_counts
            for member in run.stages[1:]:
                if member.id in counts:
                    consumed += self._run_train(member.id)
        return run.tail.id, consumed

    def _push_downstream(self, box_id: str) -> float:
        """Push a train's outputs through downstream boxes (train scheduling)."""
        routes, counts, runs = self._routes, self.queued_counts, self._runs
        consumed = 0.0
        if box_id in runs:
            box_id, consumed = self._advance_run(box_id)
        # Breadth first: the loop walks the list as it grows, so the list
        # holds every box ever reached, and ``seen`` — built only when a
        # successor has successors of its own — starts as its set.
        frontier = list(routes[box_id].downstream)
        seen: set[str] | None = None
        for current in frontier:
            if current not in counts:
                continue
            consumed += self._run_train(current)
            if current in runs:
                current, extra = self._advance_run(current)
                consumed += extra
            downstream = routes[current].downstream
            if downstream:
                if seen is None:
                    seen = set(frontier)
                for succ in downstream:
                    if succ not in seen:
                        seen.add(succ)
                        frontier.append(succ)
        return consumed

    def _emit(
        self,
        ports: dict[int, tuple["_Hop", ...]],
        emissions: Iterable[tuple[int, ColumnarTrain | list[StreamTuple]]],
    ) -> None:
        """Route ``(port, batch)`` emissions to every arc on their ports
        (a route's ``ports``), stamped with the current clock — for a
        train's emissions, the train-end clock.

        Per-port emission order is preserved (each arc is fed from a
        single source port, so per-arc queue order matches the per-tuple
        path).  A row list on a plain arc extends its queue here;
        connection points, outputs and whole trains take
        :meth:`_hand_off`.
        """
        counts = self.queued_counts
        for out_port, batch in emissions:
            if not batch:
                continue
            hops = ports.get(out_port, ())
            rows = not isinstance(batch, ColumnarTrain)
            if not rows and len(hops) > 1 and self._tracing and batch.traces is not None:
                # A sampled tuple fanned out to several arcs is ONE
                # object on the row path, re-stamped by each consumer in
                # turn; only shared rows reproduce that lineage.
                batch = batch.to_tuples()
                rows = True
            for hop in hops:
                arc, kind, _ref, connection_point = hop
                if not rows or connection_point is not None or kind == "out":
                    self._hand_off(hop, batch)
                    continue
                n = len(batch)
                arc.queue.extend(batch)
                arc.queue_times.extend([self.clock] * n)
                arc.tuples_transferred += n
                counts[kind] = counts.get(kind, 0) + n
                self.queued_total += n

    def _hand_off(self, hop: "_Hop", batch: ColumnarTrain | list[StreamTuple]) -> None:
        """Hand a batch :meth:`_emit` does not enqueue itself to one arc.

        Connection-point arcs take tuples one by one — history
        recording, subscribers and choking are per-tuple affairs — so a
        train materializes here; ``out`` arcs deliver; a whole train on
        a plain arc is ONE queue entry.
        """
        n = len(batch)
        arc, kind, ref, connection_point = hop
        counts = self.queued_counts
        if connection_point is not None:
            if isinstance(batch, ColumnarTrain):
                batch = batch.to_tuples()
            for tup in batch:
                if not arc.push(tup):
                    continue  # held at a choked connection point
                if kind == "out":
                    arc.queue.popleft()
                    self._deliver(ref, [tup])
                else:
                    arc.queue_times.append(self.clock)
                    counts[kind] = counts.get(kind, 0) + 1
                    self.queued_total += 1
            return
        if kind == "out":
            arc.tuples_transferred += n
            self._deliver(ref, batch)
            return
        # Read-only broadcast: every tuple in the segment is stamped
        # with the same clock.
        arc.append_train(batch, np.broadcast_to(self.clock, (n,)))
        counts[kind] = counts.get(kind, 0) + n
        self.queued_total += n

    def _deliver(
        self, output_name: str, batch: ColumnarTrain | list[StreamTuple]
    ) -> None:
        """Deliver a row list or a whole train to an application output.

        A train lands in the lazy :class:`OutputBuffer` unmaterialized
        (only columnar engines carry trains, and all their buffers are
        lazy), with QoS latency samples taken from the vectorized
        ``clock - timestamp`` column — elementwise, the same floats the
        row loop records.  Trace events are stamped with the tuples'
        source timestamps, not the engine clock: a train delivers at its
        train-end clock, so only the timestamp is path-invariant.
        """
        buffer = self.outputs[output_name]
        clock = self.clock
        if isinstance(batch, ColumnarTrain):
            buffer.extend_train(batch)  # type: ignore[union-attr]
            latencies = (clock - batch.timestamps).tolist()
            traces = batch.traces
            if traces is not None and self._tracing:
                self.tracer.event_block(
                    traces, f"deliver:{output_name}", batch.timestamps[traces.rows]
                )
        else:
            buffer.extend(batch)
            latencies = [clock - tup.timestamp for tup in batch]
            if self._tracing:
                event = self.tracer.event
                for tup in batch:
                    if tup.trace is not None:
                        event(tup.trace, f"deliver:{output_name}", at=tup.timestamp)
        self.qos_monitor.record_output_batch(output_name, latencies)
        self._m_delivered[output_name].inc(len(batch))

    def drain_boxes(self, box_ids: Iterable[str]) -> int:
        """Synchronously run the given boxes until their queues are empty.

        The elasticity controller's quiesce step: before moving window
        state between replicas it drains the group (router first — the
        boxes run in topological order — then the replicas), so no
        in-flight tuple of a migrating key can reach its old owner after
        the ring changes.  Runs through :meth:`_run_train`, so queued
        counts, busy time and obs accounting stay exact; a fused head
        drains through its superbox, whose interior arcs stay empty.
        Returns the number of tuples drained.
        """
        self._sync()
        drained = 0
        counts = self.queued_counts
        for box_id in sorted(box_ids, key=lambda b: self.topo_position.get(b, 0)):
            box = self.network.boxes[box_id]
            for _ in range(DRAIN_ROUNDS):
                queued = counts.get(box_id, 0)
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
                raise RuntimeError(f"drain of {box_id!r} exceeded {DRAIN_ROUNDS} rounds")
        return drained

    def run_until_idle(self, max_steps: int = 1_000_000) -> float:
        """Step until nothing is queued (or the scheduler chooses no
        box).  Returns time consumed.

        Idle is the queued index standing empty — no decision is paid
        to learn it — or ``steps`` standing still, never a step that
        consumed 0.0: with no scheduling overhead a train of zero-cost
        tuples is free.
        """
        consumed = 0.0
        for _ in range(max_steps):
            if self.idle:
                return consumed
            steps = self.steps
            consumed += self.step()
            if self.steps == steps:
                return consumed
        raise RuntimeError(f"engine did not go idle within {max_steps} steps")

    def run_until(self, when: float) -> None:
        """Step until the clock reaches ``when``; an engine that goes idle
        first (or whose scheduler chooses no box) jumps its clock there —
        how a virtual-time run waits for its next arrival."""
        while self.clock < when:
            steps = self.steps
            if not self.idle:
                self.step()
            if self.steps == steps:
                if self.decision_log is not None:
                    self.decision_log.append(("until", when))
                self.clock = when
                return

    def flush(self) -> None:
        """End-of-stream: flush windowed boxes in topological order.

        Flush emissions are enqueued and processed like normal tuples,
        so a flushed aggregate still flows through its merge network.
        A fused run drains and flushes as one group (members back to
        back — the same schedule whether or not fusion is active).
        Raises if the queues hold tuples the queued index does not (an
        ``arc.push`` from outside without ``invalidate_caches()``).
        """
        self._sync()
        if self.queued_total != self.network.total_queued():
            # Once per stream, so the arcs can afford the walk: tuples
            # the index does not know of would be left behind silently.
            raise RuntimeError(
                f"{self.network.total_queued()} tuples are queued but the engine "
                f"counted {self.queued_total}: call invalidate_caches() after "
                "enqueueing on an arc directly"
            )
        visited: set[str] = set()
        for box_id in self.network.topological_order():
            if box_id in visited:
                continue
            run = self._runs.get(box_id)
            group = run.stages if run is not None else (self.network.boxes[box_id],)
            visited.update(box.id for box in group)
            self._flush_group(group)
        self.run_until_idle()

    def flush_box(self, box_id: str) -> None:
        """End-of-stream for ONE box: :meth:`flush`'s step for a group of
        one, then run until idle.  For a host that sequences the flush
        order itself because it sees only a cut of the network (the
        parallel plane's worker)."""
        self._sync()
        self._flush_group((self.network.boxes[box_id],))
        self.run_until_idle()

    def _flush_group(self, group: Sequence[Box]) -> None:
        """Drain what is still queued at each box, then flush the
        operators.  Emissions are handed off as steady-state traffic is
        — one train per port, or tuple by tuple on the per-tuple path —
        so end-of-stream accounting matches."""
        counts = self.queued_counts
        for box in group:
            while box.id in counts:
                self._run_train(box.id, limit=counts[box.id])
        if self.decision_log is not None:
            self.decision_log.append(("flush", tuple(box.id for box in group)))
        for box in group:
            emissions = box.operator.flush()
            if not emissions:
                continue
            box.tuples_out += len(emissions)
            route = self._routes[box.id]
            if self.batch_execution:
                self._emit(route.ports, _by_port(emissions))
            else:
                self._emit(route.ports, [(port, [tup]) for port, tup in emissions])

    # -- load signals -------------------------------------------------------------

    def queued_work(self) -> float:
        """CPU-seconds of work currently queued across all boxes.

        Summed in ``network.boxes`` order whatever order the index
        filled in: the float total feeds the shedder's drop
        probabilities, and float addition is not associative.
        """
        if self._revision != self.network.revision:  # _sync's test, inlined
            self._sync()
        total = 0.0
        counts = self.queued_counts
        if counts:
            for box_id, box in self.network.boxes.items():
                queued = counts.get(box_id)
                if queued:
                    total += queued * box.operator.cost_per_tuple
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


# -- what _sync compiles ----------------------------------------------------------
#
# Everything here is a function of the network's shape alone, so it is
# current exactly as long as ``network.revision`` stands still.  What
# can change without a revision bump stays a call-time read: the
# engine's ``cpu_capacity`` (a capacity fault sets it mid-run),
# ``train_size`` and ``scheduler``, an operator's ``cost_per_tuple``
# and a chain's kernel lists (profilers swap entries).

# One arc as a train sees it: (arc, target kind, target ref, connection
# point or None) — ``arc.target`` and ``arc.connection_point`` unpacked.
_Hop = tuple[Arc, Any, Any, Any]


def _hop(arc: Arc) -> _Hop:
    kind, ref = arc.target
    return arc, kind, ref, arc.connection_point


class _Route:
    """One box's part of every train that passes through it."""

    __slots__ = (
        "box", "stages", "lone", "ports", "downstream",
        "decisions", "tuples_in", "tuples_out",
    )
    # The per-box obs counters, by the slot that holds their handle.
    METRICS = {
        "decisions": "engine.scheduler.decisions",
        "tuples_in": "engine.box.tuples_in",
        "tuples_out": "engine.box.tuples_out",
    }

    def __init__(self, box: Box):
        self.box = box
        self.stages = (box,)  # a box is a run of one stage
        # The lone input arc and its port, or None at fan-in.
        self.lone: tuple[Arc, int] | None = None
        if len(box.input_arcs) == 1:
            ((port, arc),) = box.input_arcs.items()
            self.lone = (arc, port)
        self.ports: dict[int, tuple[_Hop, ...]] = {
            port: tuple(map(_hop, arcs)) for port, arcs in box.output_arcs.items()
        }
        # ``network.downstream_boxes`` order, de-duplicated.
        self.downstream: tuple[str, ...] = tuple(dict.fromkeys(
            kind for hops in self.ports.values()
            for _arc, kind, _ref, _cp in hops if kind != "out"
        ))
        # Bound on first use (``AuroraEngine._bind``).
        self.decisions: Counter | None = None
        self.tuples_in: Counter | None = None
        self.tuples_out: Counter | None = None


# -- the two encodings of a train -----------------------------------------------
#
# The accounting contract is bit-identical virtual clocks and latency
# sums whichever way a train is encoded, so each fold performs the same
# float additions in the same order: the row fold as a Python loop that
# can interleave spilled-read charges, the train fold as strictly
# sequential ``ufunc.accumulate`` chains (repro.core.columnar).


def _fold_rows(
    clock: float, cost: float, n: int, times: list[float],
    first_read: int, per_read: float, want_ends: bool,
) -> tuple[float, float, list[float] | None]:
    """Advance ``clock`` over ``n`` rows: ``(clock, latency sum, ends)``.

    ``times`` are the rows' enqueue clocks (rows past its end — tuples
    enqueued outside the engine — count from their own start), rows from
    ``first_read`` on are charged a spill read first, and ``ends`` (the
    clock after each row) is collected only when spans will be stamped.
    """
    latency = 0.0
    timed = len(times)
    if first_read >= n and timed == n and not want_ends:
        # Common case: no spilled reads, timestamps in lockstep.
        for enqueued_at in times:
            clock += cost
            latency += clock - enqueued_at
        return clock, latency, None
    ends = []
    for i in range(n):
        if i >= first_read:
            clock += per_read
        enqueued_at = times[i] if i < timed else clock
        clock += cost
        latency += clock - enqueued_at
        ends.append(clock)
    return clock, latency, ends


def _fold_train(
    clock: float, cost: float, n: int, times: np.ndarray | float
) -> tuple[float, float, np.ndarray]:
    """:func:`_fold_rows` for a columnar claim (never spilled, always
    timed): ``times`` is the per-tuple enqueue-clock column, or the one
    clock a whole interior batch was handed over at."""
    # accumulate_chain / sequential_sum (repro.core.columnar), inlined
    # to fold in place: this is the hottest accounting path.
    chain = np.empty(n + 1, dtype=np.float64)
    chain[0] = clock
    chain[1:] = cost
    np.add.accumulate(chain, out=chain)
    ends = chain[1:]
    deltas = ends - times
    np.add.accumulate(deltas, out=deltas)
    return float(ends[-1]), float(deltas[-1]), ends


def _by_port(
    emissions: list[tuple[int, StreamTuple]]
) -> Iterable[tuple[int, list[StreamTuple]]]:
    """A row kernel's emissions as one whole list per output port."""
    groups: dict[int, list[StreamTuple]] = {}
    for out_port, tup in emissions:
        group = groups.get(out_port)
        if group is None:
            groups[out_port] = [tup]
        else:
            group.append(tup)
    return groups.items()


# -- the claim rule ------------------------------------------------------------
#
# A box with several input arcs consumes them by one selection rule:
# pick the arc whose head carries the smallest order key (ties to the
# earlier port), and take the maximal run of consecutive head tuples
# that keep winning.  What the order key *is* belongs to the caller —
# the engine (and with it every parallel-plane worker) keys on enqueue
# clocks, the simulated Aurora* node (repro.distributed.node) on source
# timestamps — so the rule is parameterized by a key view.


def _enqueue_keys(arc: Arc):
    """The engine's order keys: per-entry enqueue clocks."""
    return arc.queue_times


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


def pop_head(queue: deque, n: int) -> list:
    """Dequeue the first ``n`` entries of ``queue`` as a list."""
    if n == len(queue):
        head = list(queue)
        queue.clear()
        return head
    popleft = queue.popleft
    return [popleft() for _ in range(n)]
