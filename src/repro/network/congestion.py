"""UDP-based multiplexing with congestion control (Section 4.3).

"There are some message streaming applications where the in-order
reliable transport abstraction of TCP is not needed, and some message
loss is tolerable.  We plan to investigate if a UDP-based multiplexing
protocol is also required in addition to TCP.  Doing this would require
a congestion control protocol to be implemented [12]."

This module is that investigation: a datagram multiplexer with an
AIMD congestion controller in the style of the Congestion Manager
(Balakrishnan & Seshan, RFC 3124 — the paper's citation [12]).  Losses
are tolerated (no retransmission); the controller's job is to keep the
send rate near the bottleneck without collapsing it.

The link is modeled per round-trip: it carries ``capacity`` packets per
RTT plus a small router queue; packets beyond that are dropped and
halve the congestion window (multiplicative decrease), while clean
rounds grow it by one packet (additive increase, after slow start).
Stream selection within the window uses the same start-time-fair
tagging as :class:`~repro.network.transport.MultiplexedTransport`, so
prescribed weights still govern shares.
"""

from __future__ import annotations

from collections import deque


class DatagramLink:
    """A bottleneck link measured in packets per RTT."""

    def __init__(self, capacity_per_rtt: int, queue_size: int = 4):
        if capacity_per_rtt < 1:
            raise ValueError("capacity_per_rtt must be >= 1")
        if queue_size < 0:
            raise ValueError("queue_size must be non-negative")
        self.capacity = capacity_per_rtt
        self.queue_size = queue_size
        self.delivered_packets = 0
        self.dropped_packets = 0

    def transmit(self, offered: int) -> tuple[int, int]:
        """One RTT of transmission: returns (delivered, dropped)."""
        deliverable = min(offered, self.capacity + self.queue_size)
        dropped = offered - deliverable
        self.delivered_packets += deliverable
        self.dropped_packets += dropped
        return deliverable, dropped


class AIMDController:
    """Additive-increase / multiplicative-decrease window control."""

    def __init__(self, initial_window: float = 1.0, ssthresh: float = 16.0):
        if initial_window < 1.0:
            raise ValueError("initial window must be >= 1 packet")
        self.cwnd = initial_window
        self.ssthresh = ssthresh
        self.window_history: list[float] = []

    def on_round(self, losses: int) -> None:
        """Update the window after one RTT with ``losses`` drops."""
        if losses > 0:
            # Multiplicative decrease; fall out of slow start.
            self.ssthresh = max(self.cwnd / 2.0, 1.0)
            self.cwnd = max(self.cwnd / 2.0, 1.0)
        elif self.cwnd < self.ssthresh:
            self.cwnd *= 2.0          # slow start
        else:
            self.cwnd += 1.0          # congestion avoidance
        self.window_history.append(self.cwnd)


class UdpMultiplexedTransport:
    """Best-effort multiplexing of streams over one congestion-controlled pipe.

    Args:
        link: the bottleneck.
        weights: per-stream relative weights (SFQ tags, as for TCP mux).
    """

    def __init__(self, link: DatagramLink, weights: dict[str, float] | None = None):
        self.link = link
        self.weights = dict(weights or {})
        self.controller = AIMDController()
        self._queues: dict[str, deque[tuple[float, int]]] = {}
        self._last_finish: dict[str, float] = {}
        self._virtual_time = 0.0
        self.delivered: dict[str, int] = {}
        self.lost: dict[str, int] = {}
        self.rounds = 0

    def weight(self, stream: str) -> float:
        return self.weights.get(stream, 1.0)

    def enqueue(self, stream: str, packets: int = 1) -> None:
        """Queue packets on a stream (each gets its own fairness tag)."""
        if packets < 1:
            raise ValueError("packets must be >= 1")
        queue = self._queues.setdefault(stream, deque())
        for _ in range(packets):
            start = max(self._virtual_time, self._last_finish.get(stream, 0.0))
            self._last_finish[stream] = start + 1.0 / self.weight(stream)
            queue.append((start, 1))

    def backlog(self, stream: str) -> int:
        return len(self._queues.get(stream, ()))

    def _select_batch(self, budget: int) -> list[str]:
        """Pick up to ``budget`` packets by ascending start tag."""
        chosen: list[str] = []
        while len(chosen) < budget:
            best_stream = None
            best_tag = float("inf")
            for stream, queue in sorted(self._queues.items()):
                if queue and queue[0][0] < best_tag:
                    best_stream, best_tag = stream, queue[0][0]
            if best_stream is None:
                break
            self._queues[best_stream].popleft()
            self._virtual_time = max(self._virtual_time, best_tag)
            chosen.append(best_stream)
        return chosen

    def run_round(self) -> tuple[int, int]:
        """One RTT: send a window, learn from losses.

        Returns (delivered, dropped) for the round.  Lost packets are
        *not* retransmitted — "some message loss is tolerable" — but
        losses are attributed to streams (tail drop on the batch).
        """
        budget = max(int(self.controller.cwnd), 1)
        batch = self._select_batch(budget)
        if not batch:
            self.controller.on_round(losses=0)
            self.rounds += 1
            return (0, 0)
        delivered_count, dropped_count = self.link.transmit(len(batch))
        for stream in batch[:delivered_count]:
            self.delivered[stream] = self.delivered.get(stream, 0) + 1
        for stream in batch[delivered_count:]:
            self.lost[stream] = self.lost.get(stream, 0) + 1
        self.controller.on_round(losses=dropped_count)
        self.rounds += 1
        return delivered_count, dropped_count

    def run(self, rounds: int) -> None:
        for _ in range(rounds):
            self.run_round()

    def loss_rate(self) -> float:
        delivered = sum(self.delivered.values())
        lost = sum(self.lost.values())
        total = delivered + lost
        return lost / total if total else 0.0

    def utilization(self) -> float:
        """Delivered packets relative to the link's capacity so far."""
        if self.rounds == 0:
            return 0.0
        return sum(self.delivered.values()) / (self.link.capacity * self.rounds)

    def share(self, stream: str) -> float:
        total = sum(self.delivered.values())
        return self.delivered.get(stream, 0) / total if total else 0.0
