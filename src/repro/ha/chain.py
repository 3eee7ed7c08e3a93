"""The k-safety machinery: servers, output logs, lineage (Section 6.2).

"We provide k-safety by maintaining the copies of the tuples that are
in transit at each server s, at k other servers that are upstream from
s.  An upstream backup server simply holds on to a tuple it has
processed until its primary server tells it to discard the tuple."

The HA model is deliberately separate from the Aurora* overlay runtime:
its currency is *message counts* and *tuples reprocessed*, which is how
the paper argues (Section 6.4 compares run-time messages against
recovery work).  Servers form a DAG; every tuple carries a *lineage*
map — for each origin (source or server) the sequence number of the
earliest tuple of that origin it depends on — which is what both
truncation schemes (flow messages, Section 6.2; sequence-number
arrays, ibid.) consume.

Processing within a server is a pipeline of small lineage-threading
operators (stateless map/filter and tumbling count-window aggregates);
they are deterministic, which is what makes replay-based recovery
produce identical sequence numbers and lets receivers discard
duplicates.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterable

from repro.obs.registry import NULL_COUNTER, NULL_GAUGE, MetricsRegistry
from repro.obs.trace import Tracer


def merge_lineage(*lineages: dict[str, int]) -> dict[str, int]:
    """Combine lineages, keeping the earliest (minimum) seq per origin.

    Used for *dependency* tracking: a derived tuple depends on the
    earliest of its contributors.
    """
    merged: dict[str, int] = {}
    for lineage in lineages:
        for origin, seq in lineage.items():
            if origin not in merged or seq < merged[origin]:
                merged[origin] = seq
    return merged


def latest_lineage(*lineages: dict[str, int]) -> dict[str, int]:
    """Combine lineages, keeping the latest (maximum) seq per origin.

    Used for the "most recently processed" part of the dependency
    floor: with in-order delivery, per-tuple dependency minima are
    monotone, so the last tuple's lineage bounds what has been fully
    absorbed.
    """
    merged: dict[str, int] = {}
    for lineage in lineages:
        for origin, seq in lineage.items():
            if origin not in merged or seq > merged[origin]:
                merged[origin] = seq
    return merged


class HATuple:
    """A payload plus its dependency lineage.

    ``lineage`` holds, per origin, the *earliest* contributing seq (the
    dependency floor used for truncation); ``high`` holds the *latest*
    (the absorption watermark used to pick the replay starting point at
    recovery: once a downstream server holds an output with
    ``high[u] = H``, every u-tuple up to H is fully reflected there).
    """

    __slots__ = ("value", "lineage", "high", "trace")

    def __init__(
        self,
        value: Any,
        lineage: dict[str, int],
        high: dict[str, int] | None = None,
    ):
        self.value = value
        self.lineage = dict(lineage)
        self.high = dict(high) if high is not None else dict(lineage)
        # Observability trace context for sampled tuples (None otherwise).
        self.trace = None

    def __repr__(self) -> str:
        return f"HATuple({self.value!r}, {self.lineage})"


class ServerOp:
    """Base for the HA pipeline operators (deterministic, lineage-aware)."""

    def process(self, tup: HATuple) -> list[HATuple]:
        raise NotImplementedError

    def state_lineage(self) -> dict[str, int]:
        """Lineage of the earliest tuples contributing to internal state."""
        return {}

    def clone(self) -> "ServerOp":
        """A fresh, state-free copy (used to rebuild a failed server)."""
        raise NotImplementedError


class StatelessOp(ServerOp):
    """Map/filter in one: ``fn(value)`` returns a new value or None to drop."""

    def __init__(self, fn: Callable[[Any], Any]):
        self.fn = fn

    def process(self, tup: HATuple) -> list[HATuple]:
        result = self.fn(tup.value)
        if result is None:
            return []
        return [HATuple(result, tup.lineage, tup.high)]

    def clone(self) -> "StatelessOp":
        return StatelessOp(self.fn)


class WindowOp(ServerOp):
    """Tumbling count-window aggregate (deterministic, lineage-merging).

    Emits ``agg(values)`` every ``size`` tuples; the emitted tuple's
    lineage is the merge of all window members' lineages — this is the
    "tuples whose values got determined directly or indirectly based on
    t" dependency the paper's truncation logic tracks.
    """

    def __init__(self, size: int, agg: Callable[[list[Any]], Any]):
        if size < 1:
            raise ValueError("window size must be >= 1")
        self.size = size
        self.agg = agg
        self._window: list[HATuple] = []

    def process(self, tup: HATuple) -> list[HATuple]:
        self._window.append(tup)
        if len(self._window) < self.size:
            return []
        lineage = merge_lineage(*(t.lineage for t in self._window))
        high = latest_lineage(*(t.high for t in self._window))
        value = self.agg([t.value for t in self._window])
        self._window = []
        return [HATuple(value, lineage, high)]

    def state_lineage(self) -> dict[str, int]:
        if not self._window:
            return {}
        return merge_lineage(*(t.lineage for t in self._window))

    def clone(self) -> "WindowOp":
        return WindowOp(self.size, self.agg)


def run_through(
    tup: HATuple, stages: Iterable[Callable[[HATuple], list[HATuple]]]
) -> list[HATuple]:
    """Pass one tuple through a pipeline of stages (a server's ops, a
    virtual machine's ops, a chain of virtual machines): every output of
    a stage feeds the next, in order."""
    batch = [tup]
    for stage in stages:
        batch = [out for item in batch for out in stage(item)]
    return batch


class HAServer:
    """One server: a deterministic pipeline plus the k-safety bookkeeping.

    Attributes:
        output_log: retained (seq, HATuple) pairs — the upstream-backup
            queue.  Entries are discarded only by :meth:`truncate`.
        last_processed: lineage of the most recently processed input
            (the stateless part of the dependency floor).
    """

    def __init__(self, name: str, ops: list[ServerOp] | None = None):
        self.name = name
        self.ops = ops or []
        self.output_log: deque[tuple[int, HATuple]] = deque()
        self.next_seq = 0
        self.last_processed: dict[str, int] = {}
        self.last_received: dict[str, int] = {}
        # Content keys of accepted tuples per sender.  Replay after a
        # recovery regenerates tuples under fresh sequence numbers, so
        # duplicate suppression is content-based (a production system
        # would bound this with watermarks; the simulation keeps it all).
        self._seen_keys: dict[str, set[tuple]] = {}
        # Absorption watermarks, per *sender*: for each input edge, the
        # highest ``high`` seq per origin seen on that edge.  Recovery
        # uses the *downstream* server's absorbed map to pick where
        # replay must start — keyed by sender because on a branching
        # DAG another branch may carry an origin's watermark far past
        # what ever flowed through the failed sender.
        self.absorbed: dict[str, dict[str, int]] = {}
        self.failed = False
        self.tuples_processed = 0
        self.duplicates_dropped = 0
        self.tuples_truncated = 0
        # Registry handles, bound by the owning ServerChain (no-ops for
        # a standalone server).
        self._m_truncated = NULL_COUNTER
        self._m_floor = NULL_GAUGE
        # Observation hook: called as (server, below, dropped_entries)
        # just before entries leave the output log.  Invariant checkers
        # (repro.sim.invariants) use it to verify truncation safety.
        self.truncate_hook: Callable[["HAServer", int, list], None] | None = None

    def ingest(self, tup: HATuple, sender: str) -> list[HATuple]:
        """Process one input tuple; returns the output tuples (logged).

        Duplicate suppression is two-layered: replayed tuples either
        carry a sequence number at or below the highest already seen
        from the sender (straight replay), or — after the sender itself
        recovered and renumbered — an already-seen *content key* (the
        tuple's lineage excluding the sender's own entry, which is
        unique per logical tuple for deterministic pipelines).
        """
        if self.failed:
            return []
        key = tuple(
            sorted((o, s) for o, s in tup.lineage.items() if o != sender)
        )
        if not key:
            # Direct source feed: the sender's own seq is the identity
            # (sources never renumber, so this stays replay-stable).
            key = tuple(sorted(tup.lineage.items()))
        sender_seq = tup.lineage.get(sender)
        seen_keys = self._seen_keys.setdefault(sender, set())
        if sender_seq is not None:
            if sender_seq <= self.last_received.get(sender, -1) or key in seen_keys:
                self.duplicates_dropped += 1
                return []
            self.last_received[sender] = sender_seq
        seen_keys.add(key)
        self.last_processed = latest_lineage(self.last_processed, tup.lineage)
        self.absorbed[sender] = latest_lineage(
            self.absorbed.get(sender, {}), tup.high
        )
        self.tuples_processed += 1
        outputs = run_through(tup, [op.process for op in self.ops])
        logged = []
        for out in outputs:
            lineage = dict(out.lineage)
            lineage[self.name] = self.next_seq
            high = dict(out.high)
            high[self.name] = self.next_seq
            stamped = HATuple(out.value, lineage, high)
            self.output_log.append((self.next_seq, stamped))
            self.next_seq += 1
            logged.append(stamped)
        return logged

    def dependency_floor(self) -> dict[str, int]:
        """Per-origin seq of the earliest tuple this server still needs.

        For origins present in operator state, the earliest state
        contributor; for everything else the server has fully absorbed
        its input, so the floor is one past the last processed seq
        ("if the box is stateless, the recorded tuple is the one that
        has been processed most recently").
        """
        state = merge_lineage(*(op.state_lineage() for op in self.ops))
        floor = {origin: seq + 1 for origin, seq in self.last_processed.items()}
        for origin, seq in state.items():
            floor[origin] = min(floor.get(origin, seq), seq)
        return floor

    def truncate(self, below: int) -> int:
        """Discard output-log entries with seq < below; returns the count."""
        dropped_entries = []
        while self.output_log and self.output_log[0][0] < below:
            dropped_entries.append(self.output_log[0])
            self.output_log.popleft()
        if dropped_entries and self.truncate_hook is not None:
            self.truncate_hook(self, below, dropped_entries)
        self.tuples_truncated += len(dropped_entries)
        self._m_truncated.inc(len(dropped_entries))
        self._m_floor.set(below)
        return len(dropped_entries)

    def log_size(self) -> int:
        return len(self.output_log)

    def fail(self) -> None:
        """Crash-stop: internal state and unprocessed inputs are lost."""
        self.failed = True

    def rebuild(self, next_seq: int = 0) -> None:
        """Reset to a blank post-recovery state (pipeline state is
        reconstructed by replay, not restored).

        ``next_seq`` continues output numbering after the highest seq a
        downstream server acknowledges having received, keeping
        per-sender sequence numbers monotone across the recovery.
        """
        self.ops = [op.clone() for op in self.ops]
        self.output_log.clear()
        self.next_seq = next_seq
        self.last_processed = {}
        self.last_received = {}
        self._seen_keys = {}
        self.absorbed = {}
        self.failed = False

    def __repr__(self) -> str:
        state = "failed" if self.failed else "up"
        return f"HAServer({self.name}, log={len(self.output_log)}, {state})"


class SourceNode(HAServer):
    """A data source: assigns sequence numbers and retains its output.

    Sources participate in k-safety like servers — the entry server's
    upstream backup *is* the source.
    """

    def __init__(self, name: str):
        super().__init__(name, ops=[])

    def produce(self, value: Any) -> HATuple:
        tup = HATuple(value, {self.name: self.next_seq})
        self.output_log.append((self.next_seq, tup))
        self.next_seq += 1
        return tup


class ServerChain:
    """A DAG of sources and servers with k-safe upstream backup.

    Transmission uses explicit in-flight FIFO queues per edge: tuples
    sit "on the wire" until :meth:`pump` delivers them, which lets
    failure experiments lose in-transit messages exactly as a crashed
    server would.  Every data transfer, flow message, back-channel ack
    and heartbeat is counted — the paper's comparison currency.

    Args:
        k: the safety parameter — "the failure of any k servers does
            not result in any message losses".
        metrics: shared observability registry; a fresh enabled one is
            created if omitted.  Message counts live there (the int
            attributes are registry-backed properties).
        tracer: optional span tracer; with sampling active, pushed
            tuples carry spans through transmit, server ingestion and
            application delivery.
    """

    def __init__(
        self,
        k: int = 1,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ):
        if k < 0:
            raise ValueError("k must be non-negative")
        self.k = k
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        self._tracing = tracer is not None and tracer.active
        self._m_data = self.metrics.counter("ha.data_messages")
        # The flow protocol (repro.ha.flow) counts its own messages.
        self.flow_counter = self.metrics.counter("ha.flow_messages")
        self.ack_counter = self.metrics.counter("ha.ack_messages")
        self._m_heartbeats = self.metrics.counter("ha.heartbeats_sent")
        self._m_wire_drops = self.metrics.counter("ha.wire_drops")
        self._m_delivered = self.metrics.labelled("ha.delivered.tuples", "terminal")
        self.servers: dict[str, HAServer] = {}
        self.sources: dict[str, SourceNode] = {}
        self.edges: dict[str, list[str]] = {}
        self.in_flight: dict[tuple[str, str], deque[HATuple]] = {}
        self.delivered: dict[str, list[HATuple]] = {}
        # Application-side duplicate suppression for terminal servers:
        # after a terminal recovers and renumbers, replayed outputs are
        # recognized by content, exactly as servers do for each other.
        self._app_seen: dict[str, set[tuple]] = {}
        # Application-side absorption watermarks (per terminal, per
        # origin): the recovery replay floor of a failed terminal.
        self.app_absorbed: dict[str, dict[str, int]] = {}
        self.flow_round = 0
        # Acks collected during the current flow round:
        # origin -> [(recorded_at, floor), ...].
        self._pending_acks: dict[str, list[tuple[str, int]]] = {}
        # Partitioned edges: traffic queues up in_flight but pump (and
        # the flow protocol) will not cross them until they heal.
        self.blocked_edges: set[tuple[str, str]] = set()
        # Wire-level observation/drop hook: called as (src, dst, tup)
        # on every transmit; returning False loses the tuple on the
        # wire (counted in wire_drops).  None means deliver everything.
        self.transmit_hook: Callable[[str, str, HATuple], bool] | None = None

    # The paper's comparison currency, registry-backed: counted on the
    # handles, read here.

    @property
    def data_messages(self) -> int:
        return self._m_data.value

    @property
    def flow_messages(self) -> int:
        return self.flow_counter.value

    @property
    def ack_messages(self) -> int:
        return self.ack_counter.value

    @property
    def heartbeats_sent(self) -> int:
        return self._m_heartbeats.value

    @property
    def wire_drops(self) -> int:
        return self._m_wire_drops.value

    # -- construction -------------------------------------------------------------

    def add_source(self, name: str) -> SourceNode:
        self._check_new(name)
        source = SourceNode(name)
        self.sources[name] = source
        self.edges[name] = []
        self._bind_node_metrics(source)
        return source

    def add_server(self, name: str, ops: list[ServerOp] | None = None) -> HAServer:
        self._check_new(name)
        server = HAServer(name, ops)
        self.servers[name] = server
        self.edges[name] = []
        self._bind_node_metrics(server)
        return server

    def _bind_node_metrics(self, node: HAServer) -> None:
        node._m_truncated = self.metrics.counter(
            "ha.tuples_truncated", server=node.name
        )
        node._m_floor = self.metrics.gauge("ha.truncation_floor", server=node.name)

    def _check_new(self, name: str) -> None:
        if name in self.servers or name in self.sources:
            raise ValueError(f"node {name!r} already exists")

    def connect(self, src: str, dst: str) -> None:
        """Add a directed edge; dst must be a server (sources only emit)."""
        if src not in self.edges:
            raise KeyError(f"unknown node {src!r}")
        if dst not in self.servers:
            raise KeyError(f"unknown server {dst!r}")
        if dst in self.edges[src]:
            raise ValueError(f"edge {src}->{dst} already exists")
        self.edges[src].append(dst)
        self.in_flight[(src, dst)] = deque()

    def node(self, name: str) -> HAServer:
        if name in self.servers:
            return self.servers[name]
        if name in self.sources:
            return self.sources[name]
        raise KeyError(f"unknown node {name!r}")

    def upstreams(self, name: str) -> list[str]:
        return [src for src, dsts in self.edges.items() if name in dsts]

    def downstreams(self, name: str) -> list[str]:
        return list(self.edges.get(name, []))

    def terminal(self) -> str:
        """The chain's one terminal server (ValueError unless exactly one)."""
        terminals = [name for name in self.servers if self.is_terminal(name)]
        if len(terminals) != 1:
            raise ValueError(f"expected one terminal server, found {terminals}")
        return terminals[0]

    def is_terminal(self, name: str) -> bool:
        """Terminal servers deliver their outputs to applications."""
        return name in self.servers and not self.edges.get(name)

    def distance(self, src: str, dst: str) -> int | None:
        """Server-boundary hops from src to dst (BFS), None if unreachable."""
        if src == dst:
            return 0
        frontier = [(src, 0)]
        seen = {src}
        while frontier:
            current, hops = frontier.pop(0)
            for succ in self.edges.get(current, []):
                if succ in seen:
                    continue
                if succ == dst:
                    return hops + 1
                seen.add(succ)
                frontier.append((succ, hops + 1))
        return None

    # -- data plane ------------------------------------------------------------------

    def push(self, source_name: str, value: Any) -> HATuple:
        """A source produces one tuple and sends it downstream."""
        source = self.sources[source_name]
        tup = source.produce(value)
        if self._tracing:
            ctx = self.tracer.start_trace(f"source:{source_name}", node=source_name)
            if ctx is not None:
                tup.trace = ctx
        for dst in self.edges[source_name]:
            self.transmit(source_name, dst, tup)
        return tup

    def transmit(self, src: str, dst: str, tup: HATuple) -> None:
        if self._tracing and tup.trace is not None:
            # A leaf event, not a re-stamp: the same tuple object fans
            # out to several destinations.
            self.tracer.event(tup.trace, f"wire:{src}->{dst}", node=src)
        if self.transmit_hook is not None and not self.transmit_hook(src, dst, tup):
            self._m_wire_drops.inc()
            return
        if dst in self.servers and self.servers[dst].failed:
            # The receiver is down: the connection fails and the tuple
            # is lost on the wire (upstream backup replays it after
            # recovery).  Queueing it instead would let it sit on a
            # partitioned link and arrive *ahead* of the replay,
            # tripping the receiver's in-order duplicate filter.
            self._m_data.inc()
            return
        self.in_flight[(src, dst)].append(tup)
        self._m_data.inc()

    # -- partitions (fault injection) ----------------------------------------------

    def block_edge(self, src: str, dst: str) -> None:
        """Partition one edge: in-flight traffic waits until it heals."""
        if (src, dst) not in self.in_flight:
            raise KeyError(f"unknown edge {src!r} -> {dst!r}")
        self.blocked_edges.add((src, dst))

    def unblock_edge(self, src: str, dst: str) -> None:
        """Heal a partitioned edge (queued traffic flows on next pump)."""
        self.blocked_edges.discard((src, dst))

    def heal_all(self) -> None:
        self.blocked_edges.clear()

    def pump(self) -> int:
        """Deliver all in-flight tuples to completion; returns the count.

        Tuples addressed to a failed server are consumed and lost
        (the server's upstream backup covers them on recovery).  Tuples
        on a blocked (partitioned) edge stay queued until it heals.
        """
        delivered = 0
        progress = True
        while progress:
            progress = False
            for (src, dst), queue in sorted(self.in_flight.items()):
                if (src, dst) in self.blocked_edges:
                    continue
                while queue:
                    tup = queue.popleft()
                    delivered += 1
                    progress = True
                    ctx = None
                    if self._tracing and tup.trace is not None:
                        ctx = self.tracer.span(
                            tup.trace, f"ha-server:{dst}", node=dst
                        )
                    outputs = self.servers[dst].ingest(tup, sender=src)
                    for out in outputs:
                        if ctx is not None:
                            out.trace = ctx
                        if self.is_terminal(dst):
                            self._deliver_to_app(dst, out)
                        for succ in self.edges[dst]:
                            self.transmit(dst, succ, out)
        return delivered

    def _deliver_to_app(self, terminal: str, out: HATuple) -> None:
        key = tuple(
            sorted((o, s) for o, s in out.lineage.items() if o != terminal)
        )
        seen = self._app_seen.setdefault(terminal, set())
        if key in seen:
            return  # a replayed duplicate after the terminal recovered
        seen.add(key)
        self.app_absorbed[terminal] = latest_lineage(
            self.app_absorbed.get(terminal, {}), out.high
        )
        self.delivered.setdefault(terminal, []).append(out)
        self._m_delivered[terminal].inc()
        if self._tracing and out.trace is not None:
            self.tracer.event(out.trace, f"deliver:{terminal}", node=terminal)

    def app_last_seq(self, terminal: str) -> int:
        """Highest terminal-server seq the application has received."""
        seqs = self.delivered_seqs(terminal)
        return max(seqs) if seqs else -1

    def drop_in_flight(self, server_name: str) -> int:
        """Lose all wire traffic to and from a (failed) server."""
        dropped = 0
        for (src, dst), queue in self.in_flight.items():
            if server_name in (src, dst):
                dropped += len(queue)
                queue.clear()
        return dropped

    def delivered_seqs(self, terminal: str) -> set[int]:
        """Seq numbers (of the terminal server) delivered to the app."""
        return {
            tup.lineage[terminal]
            for tup in self.delivered.get(terminal, [])
            if terminal in tup.lineage
        }

    # -- heartbeats (Section 6.3) --------------------------------------------------------

    def heartbeat_round(self) -> list[tuple[str, str]]:
        """Every live server heartbeats its upstream neighbors.

        Returns (upstream, failed_downstream) pairs: upstream servers
        that did NOT receive an expected heartbeat, i.e., detected a
        failure ("If a server does not hear from its downstream
        neighbor for some predetermined time period, it considers that
        its neighbor failed, and it initiates a recovery procedure").
        """
        detections = []
        for src, dsts in sorted(self.edges.items()):
            for dst in dsts:
                downstream = self.servers[dst]
                if downstream.failed:
                    detections.append((src, dst))
                else:
                    self._m_heartbeats.inc()
        return detections

    def total_log_size(self) -> int:
        """Total retained tuples across all output logs (backup footprint)."""
        nodes = list(self.servers.values()) + list(self.sources.values())
        return sum(node.log_size() for node in nodes)

