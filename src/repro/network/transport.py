"""Message transport between overlay nodes (Section 4.3).

The paper contrasts two designs for carrying many logical message
streams between a node pair:

* **Per-stream connections** — "set up individual TCP connections, one
  per message stream".  Problems the paper lists, all modeled here:
  (1) per-connection overhead becomes prohibitive as streams grow
  (connection setup bytes + per-connection bookkeeping cost);
  (2) independent connections share bandwidth *equally* (each
  backlogged connection gets an even split, emulating TCP fairness),
  not according to prescribed weights.

* **Multiplexed transport** — "multiplex all the message streams on to
  a single TCP connection and have a message scheduler that determines
  which message stream gets to use the connection at any time.  This
  scheduler implements a weighted connection sharing policy".  Modeled
  as weighted fair queueing (virtual finish times) over one connection
  with a small per-message framing overhead.

Both transports are offline simulators over a fixed-bandwidth pipe:
enqueue messages, then :meth:`run` for a duration and read per-stream
delivery statistics.  Experiment E12 checks that the multiplexed
scheduler delivers bandwidth in the prescribed ratios while the
per-stream design does not, and that per-stream overhead grows with the
number of streams.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.obs.registry import MetricsRegistry


class StreamMessage:
    """One application message on a logical stream.

    ``tuple_count`` is the number of application tuples the message
    carries (1 for a plain message; trains set it higher) — delivery
    statistics count tuples as well as messages, so batched and scalar
    transports are comparable tuple-for-tuple.
    """

    __slots__ = ("stream", "size", "delivered_at")

    tuple_count = 1

    def __init__(self, stream: str, size: int):
        if size <= 0:
            raise ValueError("message size must be positive")
        self.stream = stream
        self.size = size
        self.delivered_at: float | None = None

    def __repr__(self) -> str:
        return f"StreamMessage({self.stream}, {self.size}B)"


TUPLE_BYTES = 100          # one tuple's payload on the simulated Aurora* overlay
MESSAGE_HEADER_BYTES = 40  # the framing of one Aurora* tuple-batch message


def train_frame_size(tuple_count: int, tuple_bytes: int, header_bytes: int) -> int:
    """Wire size of one multi-tuple frame: one header, n payloads.

    The batched transport framing: a whole tuple train ships as a
    single frame, paying the per-message header once instead of once
    per tuple (the same amortization train scheduling buys the engine).
    """
    if tuple_count < 1:
        raise ValueError("a tuple train frame carries at least one tuple")
    return header_bytes + tuple_count * tuple_bytes


class TupleTrainMessage(StreamMessage):
    """One wire frame carrying a whole tuple train.

    Section 2.3's trains meet Section 4.3's transport: remote arcs ship
    one frame per train instead of one message per tuple.  The frame's
    size is :func:`train_frame_size`; per-stream delivery statistics
    account all ``tuple_count`` tuples on delivery (and lose them all
    together on a drop — the frame is the unit of loss).
    """

    __slots__ = ("tuple_count",)

    def __init__(
        self,
        stream: str,
        tuple_count: int,
        tuple_bytes: int,
        header_bytes: int = 24,
    ):
        super().__init__(
            stream, size=train_frame_size(tuple_count, tuple_bytes, header_bytes)
        )
        self.tuple_count = tuple_count

    def __repr__(self) -> str:
        return f"TupleTrainMessage({self.stream}, {self.tuple_count} tuples, {self.size}B)"


class TransportStats:
    """Per-run delivery statistics shared by both transports.

    Counts live in the stats' own
    :class:`~repro.obs.registry.MetricsRegistry` under the
    ``transport.*`` namespace; the dict-shaped views (``delivered_bytes``
    and friends) are built on demand from the registry handles.
    """

    def __init__(self):
        registry = self.registry = MetricsRegistry()
        self._bytes = registry.labelled("transport.delivered.bytes", "stream")
        self._messages = registry.labelled("transport.delivered.messages", "stream")
        self._tuples = registry.labelled("transport.delivered.tuples", "stream")
        self.overhead = registry.counter("transport.overhead_bytes")
        self.connections = registry.counter("transport.connections_used")
        self.dropped = registry.counter("transport.dropped_messages")

    def record(self, message: StreamMessage) -> None:
        stream = message.stream
        self._bytes[stream].inc(message.size)
        self._messages[stream].inc()
        self._tuples[stream].inc(message.tuple_count)

    # Dict-shaped views kept for the many existing readers; only streams
    # that actually delivered something appear (never-delivered streams
    # have no handles).

    @property
    def delivered_bytes(self) -> dict[str, int]:
        return {s: h.value for s, h in sorted(self._bytes.items())}

    @property
    def delivered_messages(self) -> dict[str, int]:
        return {s: h.value for s, h in sorted(self._messages.items())}

    @property
    def delivered_tuples(self) -> dict[str, int]:
        return {s: h.value for s, h in sorted(self._tuples.items())}

    @property
    def overhead_bytes(self) -> int:
        return self.overhead.value

    @property
    def connections_used(self) -> int:
        return self.connections.value

    @property
    def dropped_messages(self) -> int:
        return self.dropped.value

    def share(self, stream: str) -> float:
        """Fraction of total delivered payload bytes carried by ``stream``."""
        total = sum(h.value for h in self._bytes.values())
        handle = self._bytes.get(stream)
        return handle.value / total if total and handle else 0.0


class MultiplexedTransport:
    """All streams on one connection, scheduled by weighted fair queueing.

    Args:
        bandwidth: connection payload bandwidth (bytes/second).
        weights: per-stream relative weights ("based on QoS or contract
            specification"); unknown streams default to weight 1.
        framing_overhead: extra bytes per message for the mux frame
            header (small; there is only one connection).
    """

    def __init__(
        self,
        bandwidth: float,
        weights: dict[str, float] | None = None,
        framing_overhead: int = 4,
        loss_hook: Callable[[StreamMessage], bool] | None = None,
    ):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth = bandwidth
        self.weights = dict(weights or {})
        self.framing_overhead = framing_overhead
        # Fault-injection hook: called once per transmitted message;
        # returning True loses the message after it consumed link time
        # (a corrupted/dropped frame), counted in stats.dropped_messages.
        self.loss_hook = loss_hook
        # Per-stream queues of (start_tag, message).  Tags follow
        # start-time fair queueing: a message's virtual start is
        # max(current virtual time, the stream's previous finish), and
        # its finish is start + size/weight.  Serving the smallest start
        # tag delivers bandwidth in proportion to the weights.
        self._queues: dict[str, deque[tuple[float, StreamMessage]]] = {}
        self._last_finish: dict[str, float] = {}
        self._virtual_time = 0.0
        self.stats = TransportStats()
        self.stats.connections.inc()

    def weight(self, stream: str) -> float:
        return self.weights.get(stream, 1.0)

    def enqueue(self, message: StreamMessage) -> None:
        stream = message.stream
        start = max(self._virtual_time, self._last_finish.get(stream, 0.0))
        self._last_finish[stream] = start + message.size / self.weight(stream)
        self._queues.setdefault(stream, deque()).append((start, message))

    def backlog(self, stream: str) -> int:
        return len(self._queues.get(stream, ()))

    def _select(self) -> str | None:
        """Pick the backlogged stream whose head has the smallest start tag."""
        best_stream: str | None = None
        best_tag = float("inf")
        for stream, queue in sorted(self._queues.items()):
            if queue and queue[0][0] < best_tag:
                best_stream, best_tag = stream, queue[0][0]
        return best_stream

    def run(self, duration: float, start_time: float = 0.0) -> TransportStats:
        """Transmit for ``duration`` seconds of link time."""
        now = start_time
        deadline = start_time + duration
        while now < deadline:
            stream = self._select()
            if stream is None:
                break
            start_tag, message = self._queues[stream][0]
            wire_size = message.size + self.framing_overhead
            transmit_time = wire_size / self.bandwidth
            if now + transmit_time > deadline:
                break  # does not fit in the remaining window
            self._queues[stream].popleft()
            now += transmit_time
            self._virtual_time = max(self._virtual_time, start_tag)
            if self.loss_hook is not None and self.loss_hook(message):
                self.stats.dropped.inc()
                continue
            message.delivered_at = now
            self.stats.record(message)
            self.stats.overhead.inc(self.framing_overhead)
        return self.stats


SETUP_OVERHEAD = 120  # handshake bytes of one per-stream connection


class PerStreamTransport:
    """One connection per stream, sharing the pipe equally.

    Args:
        bandwidth: total payload bandwidth of the node pair.
        header_overhead: per-message protocol header bytes on every
            connection (TCP/IP-scale, larger than a mux frame).

    Each connection is charged :data:`SETUP_OVERHEAD` handshake bytes
    once.

    Bandwidth sharing is processor sharing among *backlogged*
    connections: at any instant each active connection transmits at
    ``bandwidth / n_active`` — TCP-like fairness, insensitive to any
    prescribed weights (the paper's complaint).
    """

    def __init__(
        self,
        bandwidth: float,
        header_overhead: int = 40,
        loss_hook: Callable[[StreamMessage], bool] | None = None,
    ):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth = bandwidth
        self.header_overhead = header_overhead
        self.loss_hook = loss_hook
        self._queues: dict[str, deque[StreamMessage]] = {}
        self.stats = TransportStats()

    def enqueue(self, message: StreamMessage) -> None:
        if message.stream not in self._queues:
            self._queues[message.stream] = deque()
            self.stats.connections.inc()
            self.stats.overhead.inc(SETUP_OVERHEAD)
        self._queues[message.stream].append(message)

    def backlog(self, stream: str) -> int:
        return len(self._queues.get(stream, ()))

    def run(self, duration: float, start_time: float = 0.0) -> TransportStats:
        """Transmit for ``duration`` seconds with equal sharing.

        Implemented as exact processor sharing: between events, every
        backlogged connection progresses at bandwidth/n; the next event
        is the earliest head-of-line completion.
        """
        now = start_time
        deadline = start_time + duration
        # Remaining wire bytes of each connection's head-of-line message.
        remaining: dict[str, float] = {}
        while now < deadline:
            active = sorted(
                stream for stream, queue in self._queues.items() if queue
            )
            if not active:
                break
            rate = self.bandwidth / len(active)
            for stream in active:
                if stream not in remaining:
                    head = self._queues[stream][0]
                    remaining[stream] = head.size + self.header_overhead
            # Earliest completion among heads at the current shared rate.
            next_done = min(remaining[s] / rate for s in active)
            if now + next_done > deadline:
                elapsed = deadline - now
                for stream in active:
                    remaining[stream] -= rate * elapsed
                now = deadline
                break
            now += next_done
            for stream in active:
                remaining[stream] -= rate * next_done
            for stream in list(active):
                if remaining[stream] <= 1e-9:
                    message = self._queues[stream].popleft()
                    del remaining[stream]
                    if self.loss_hook is not None and self.loss_hook(message):
                        self.stats.dropped.inc()
                        continue
                    message.delivered_at = now
                    self.stats.record(message)
                    self.stats.overhead.inc(self.header_overhead)
        return self.stats
