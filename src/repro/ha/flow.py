"""Queue truncation: flow messages and sequence-number arrays (Section 6.2).

**Flow messages.** "Periodically, each data source creates and sends
flow messages into the system.  A box processes a flow message by first
recording the sequence number of the earliest tuple that it currently
depends on, and then passing it onward. ... each server records the
identifiers of the earliest upstream tuples that it depends on.  These
values serve as checkpoints; they are communicated through a back
channel to the upstream servers, which can appropriately truncate the
tuples they hold."

A record made at server ``s`` for origin ``u`` authorizes ``u`` to
truncate only once the flow message has crossed ``k`` further server
boundaries (or reached an output) — by FIFO ordering, every output
derived from the truncated tuples has then safely passed those
boundaries, which is exactly the k-safety condition.

Branches follow the paper: on fan-out the message is split (copied);
a server with several input edges saves the first message of a round
until the others arrive, merging records by minimum.  When an origin
has multiple successors, it hears several back-channel values; we
truncate with the *minimum* across them (the safe direction — the
paper's prose says "maximum of the minimum values", which we read as
"the highest truncation point that is still ≤ every reported
minimum", i.e. the same thing).

**Sequence-number arrays.** "An alternate technique ... is to install
an array of sequence numbers on each server, one for each upstream
server ... The upstream servers can then query this array periodically
and truncate their queues accordingly."  Because our tuples carry full
transitive lineage, each server's :meth:`HAServer.dependency_floor` *is*
that array; an origin polls the servers ``k`` boundaries downstream
(two messages per poll) and truncates at its convenience.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ha.chain import HAServer, ServerChain


@dataclass
class FlowRecord:
    """One checkpoint inside a flow message.

    ``distance`` is the boundary count from the origin to the recording
    server.  Only records with ``distance <= k`` gate the origin's
    retention (anything deeper is the responsibility of servers closer
    to it — that is exactly what makes the guarantee *k*-safety and not
    more); a record matures (acks) once the message has travelled
    ``k + 1 - distance`` further boundaries, i.e. once it is k+1
    boundaries past the origin, so every output derived from the
    truncated tuples has passed the full k-failure blast radius.
    """

    recorded_at: str
    origin: str
    floor_seq: int
    distance: int
    boundaries: int = 0


@dataclass
class FlowMessage:
    """A flow message traveling one path through the server DAG."""

    round: int
    records: list[FlowRecord] = field(default_factory=list)

    def copy(self) -> "FlowMessage":
        return FlowMessage(
            self.round,
            [
                FlowRecord(r.recorded_at, r.origin, r.floor_seq, r.distance, r.boundaries)
                for r in self.records
            ],
        )


class FlowProtocol:
    """Runs flow-message rounds over a :class:`ServerChain`.

    One ``round()`` call models a full propagation: sources inject flow
    messages, servers stamp and forward them, back-channel acks return,
    and origins truncate.  Message counts accumulate on the chain.
    """

    def __init__(self, chain: ServerChain):
        self.chain = chain
        # Merge servers buffer a round's messages until every input
        # edge has contributed one.
        self._merge_buffer: dict[tuple[str, int], list[FlowMessage]] = {}
        self.rounds_run = 0

    def round(self) -> dict[str, int]:
        """One complete flow round.  Returns {origin: truncation floor}."""
        chain = self.chain
        chain.flow_round += 1
        chain._pending_acks = {}
        round_id = chain.flow_round

        # Frontier of (destination, message) deliveries, starting at the
        # sources' outgoing edges.
        frontier: list[tuple[str, FlowMessage]] = []
        for source_name in sorted(chain.sources):
            for dst in chain.edges[source_name]:
                if (source_name, dst) in chain.blocked_edges:
                    continue  # partitioned: this round's message is lost
                message = FlowMessage(round_id)
                chain.flow_counter.inc()
                frontier.append((dst, message))

        while frontier:
            dst, message = frontier.pop(0)
            server = chain.servers[dst]
            if server.failed:
                continue  # the message is lost with the server
            merged = self._merge_at(dst, round_id, message)
            if merged is None:
                continue  # waiting for the other input edges
            self._cross_boundary(merged)
            self._stamp(server, merged)
            successors = chain.edges[dst]
            if not successors:
                # Reached an output: every remaining record acks.
                for record in merged.records:
                    self._ack(record)
                continue
            for succ in successors:
                if (dst, succ) in chain.blocked_edges:
                    continue  # partitioned: records die unacked (safe)
                chain.flow_counter.inc()
                frontier.append((succ, merged.copy()))

        return self._apply_acks()

    def _merge_at(
        self, dst: str, round_id: int, message: FlowMessage
    ) -> FlowMessage | None:
        """Implement the paper's merge rule for multi-input servers."""
        n_inputs = len(self.chain.upstreams(dst))
        if n_inputs <= 1:
            return message
        key = (dst, round_id)
        buffered = self._merge_buffer.setdefault(key, [])
        buffered.append(message)
        if len(buffered) < n_inputs:
            return None
        del self._merge_buffer[key]
        merged = FlowMessage(round_id)
        floors: dict[tuple[str, str], FlowRecord] = {}
        for msg in buffered:
            for record in msg.records:
                key2 = (record.recorded_at, record.origin)
                existing = floors.get(key2)
                if existing is None:
                    floors[key2] = FlowRecord(
                        record.recorded_at,
                        record.origin,
                        record.floor_seq,
                        record.distance,
                        record.boundaries,
                    )
                else:
                    # "the minimum is computed as before": keep the
                    # earliest floor; count boundaries conservatively.
                    existing.floor_seq = min(existing.floor_seq, record.floor_seq)
                    existing.boundaries = min(existing.boundaries, record.boundaries)
        merged.records = sorted(
            floors.values(), key=lambda r: (r.recorded_at, r.origin)
        )
        return merged

    def _cross_boundary(self, message: FlowMessage) -> None:
        """Entering a new server: carried records age by one boundary.

        A record matures once it is k+1 boundaries past its origin:
        ``distance`` boundaries were already behind it when recorded,
        so it needs ``k + 1 - distance`` more.
        """
        remaining = []
        for record in message.records:
            record.boundaries += 1
            if record.distance + record.boundaries >= self.chain.k + 1:
                self._ack(record)
            else:
                remaining.append(record)
        message.records = remaining

    def _stamp(self, server: HAServer, message: FlowMessage) -> None:
        """The server records its dependency floor into the message.

        Only origins within k boundaries upstream are recorded: deeper
        state is covered by the servers closer to those origins, which
        is what bounds the guarantee at exactly k failures.
        """
        for origin, floor in sorted(server.dependency_floor().items()):
            if origin == server.name:
                continue
            distance = self.chain.distance(origin, server.name)
            if distance is None or distance > max(self.chain.k, 1):
                continue
            message.records.append(
                FlowRecord(server.name, origin, floor, distance)
            )

    def _ack(self, record: FlowRecord) -> None:
        """Back-channel message to the origin (one overlay message)."""
        self.chain.ack_counter.inc()
        self.chain._pending_acks.setdefault(record.origin, []).append(
            (record.recorded_at, record.floor_seq)
        )

    def _watch_set(self, origin: str) -> set[str]:
        """Servers whose floors gate the origin's truncation.

        Every server within k boundaries downstream: a k-failure may
        take any of them out, and the origin's log must cover rebuilding
        each one through the replay cascade.
        """
        reach = max(self.chain.k, 1)
        watch = set()
        for name in self.chain.servers:
            hops = self.chain.distance(origin, name)
            if hops is not None and 1 <= hops <= reach:
                watch.add(name)
        return watch

    def _apply_acks(self) -> dict[str, int]:
        """Truncate every origin's log with the minimum acked floor.

        The paper truncates with "the minimum of the values" reported by
        the downstream servers — which requires hearing from *all* of
        them.  An origin whose round is incomplete (a watch server is
        failed, partitioned off, or has not yet recorded a floor for
        this origin) must not truncate: the silent server's recovery
        replay may still need entries the others have long absorbed.
        """
        applied = {}
        for origin, acks in sorted(self.chain._pending_acks.items()):
            heard = {recorded_at for recorded_at, _floor in acks}
            if self._watch_set(origin) - heard:
                continue  # a branch is silent this round: unsafe to truncate
            floor = min(floor for _recorded_at, floor in acks)
            node = self.chain.node(origin)
            node.truncate(floor)
            applied[origin] = floor
        self.chain._pending_acks = {}
        self.rounds_run += 1
        return applied


class SequenceNumberArray:
    """The polling alternative to flow messages (Section 6.2).

    "This approach has the advantage that the upstream server can
    truncate at its convenience, and not just when it receives a back
    channel message.  However, the array approach makes the
    implementation of individual boxes somewhat more complex."

    :meth:`poll` performs one truncation pass for a single origin: the
    origin queries the dependency-floor array of every server ``k``
    boundaries downstream (or terminal servers on shorter paths),
    paying two messages per query.
    """

    def __init__(self, chain: ServerChain):
        self.chain = chain
        self.poll_messages = 0

    def _watch_set(self, origin: str) -> list[str]:
        """Servers whose arrays gate the origin's truncation.

        All servers within k boundaries downstream: a k-failure may take
        any of them out, and the origin's log must cover rebuilding
        every one of their states through the replay cascade.
        """
        watch = []
        for name in sorted(self.chain.servers):
            hops = self.chain.distance(origin, name)
            if hops is not None and 1 <= hops <= self.chain.k:
                watch.append(name)
        return watch

    def poll(self, origin: str) -> int | None:
        """Query downstream arrays and truncate; returns the floor used."""
        floors = []
        for name in self._watch_set(origin):
            self.poll_messages += 2  # request + reply
            server = self.chain.servers[name]
            if server.failed:
                return None  # cannot establish safety during a failure
            floor = server.dependency_floor().get(origin)
            if floor is None:
                return None  # no evidence yet: keep everything
            floors.append(floor)
        if not floors:
            return None
        floor = min(floors)
        self.chain.node(origin).truncate(floor)
        return floor

    def poll_all(self) -> dict[str, int]:
        """One polling pass for every source and server."""
        results = {}
        names = sorted(self.chain.sources) + sorted(self.chain.servers)
        for origin in names:
            floor = self.poll(origin)
            if floor is not None:
                results[origin] = floor
        return results
