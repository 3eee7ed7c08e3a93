"""The overlay network (Section 4).

"The communications infrastructure is an overlay network, layered on
top of the underlying Internet substrate."  Nodes exchange messages
over links with finite bandwidth and latency; message delivery is
simulated on the discrete-event simulator, with serialization delay
(size/bandwidth), FIFO ordering per link, and per-link statistics that
the load-management and transport experiments read.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim import Simulator


class Message:
    """An overlay message: a typed payload between two nodes.

    ``kind`` discriminates handlers ("tuples", "control", "heartbeat",
    "flow", "ack", ...); ``payload`` is arbitrary; ``size`` is in bytes
    and determines serialization delay on links.
    """

    __slots__ = ("kind", "payload", "size", "src", "dst", "sent_at")

    def __init__(self, kind: str, payload: Any, size: int = 100):
        if size <= 0:
            raise ValueError("message size must be positive")
        self.kind = kind
        self.payload = payload
        self.size = size
        self.src: str | None = None
        self.dst: str | None = None
        self.sent_at: float = 0.0

    def __repr__(self) -> str:
        return f"Message({self.kind}, {self.src}->{self.dst}, {self.size}B)"


class Link:
    """A directed link with bandwidth, propagation latency and FIFO order.

    Messages serialize one after another: a message of S bytes occupies
    the link for S/bandwidth seconds, then arrives latency seconds
    later.  ``busy_until`` implements the serialization queue.
    """

    def __init__(self, src: str, dst: str, bandwidth: float = 1e6, latency: float = 0.01):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.src = src
        self.dst = dst
        self.bandwidth = bandwidth
        self.latency = latency
        self.busy_until = 0.0
        self.messages_sent = 0
        self.bytes_sent = 0

    def transfer_schedule(self, now: float, size: int) -> tuple[float, float]:
        """Compute (serialization end, delivery time) for a message sent now."""
        start = max(now, self.busy_until)
        end = start + size / self.bandwidth
        return end, end + self.latency

    def utilization(self, horizon: float) -> float:
        """Fraction of ``horizon`` spent transmitting (bytes-based)."""
        if horizon <= 0:
            return 0.0
        return min(1.0, (self.bytes_sent / self.bandwidth) / horizon)

    def __repr__(self) -> str:
        return f"Link({self.src}->{self.dst}, {self.bandwidth:g}B/s, {self.latency:g}s)"


class OverlayNode:
    """A node on the overlay: an address plus message handlers.

    Subsystems (Aurora* nodes, Medusa participants, HA managers)
    register handlers per message kind; unknown kinds go to the default
    handler if one is set, else raise.
    """

    def __init__(self, name: str, overlay: "Overlay"):
        self.name = name
        self.overlay = overlay
        self._handlers: dict[str, Callable[[Message], None]] = {}
        self._default_handler: Callable[[Message], None] | None = None
        self.messages_received = 0
        self.failed = False

    def on(self, kind: str, handler: Callable[[Message], None]) -> None:
        """Register a handler for a message kind."""
        self._handlers[kind] = handler

    def on_any(self, handler: Callable[[Message], None]) -> None:
        """Register a fallback handler for unhandled kinds."""
        self._default_handler = handler

    def send(self, dst: str, message: Message) -> None:
        """Send a message to another node (convenience for overlay.send)."""
        self.overlay.send(self.name, dst, message)

    def deliver(self, message: Message) -> None:
        """Called by the overlay when a message arrives."""
        if self.failed:
            return  # a failed node silently drops traffic (Section 6.3)
        self.messages_received += 1
        handler = self._handlers.get(message.kind, self._default_handler)
        if handler is None:
            raise LookupError(
                f"node {self.name!r} has no handler for message kind {message.kind!r}"
            )
        handler(message)

    def fail(self) -> None:
        """Crash-stop this node: all subsequent deliveries are dropped."""
        self.failed = True

    def recover(self) -> None:
        """Bring the node back (handlers intact, state as owners left it)."""
        self.failed = False

    def __repr__(self) -> str:
        state = "failed" if self.failed else "up"
        return f"OverlayNode({self.name}, {state})"


class Overlay:
    """The overlay network: nodes, links, and simulated delivery.

    Args:
        sim: the discrete-event simulator that owns time.
        default_bandwidth / default_latency: parameters for links
            created implicitly when two nodes first communicate
            (a fully-connected overlay is the common experimental
            setup; explicit :meth:`add_link` overrides per pair).
    """

    def __init__(
        self,
        sim: Simulator,
        default_bandwidth: float = 1e6,
        default_latency: float = 0.01,
        implicit_links: bool = True,
    ):
        """Args:
            implicit_links: when True (default), any node pair gets a
                default direct link on first use (a full-mesh overlay).
                When False, only explicit links exist and messages are
                relayed hop-by-hop along shortest paths.
        """
        self.sim = sim
        self.default_bandwidth = default_bandwidth
        self.default_latency = default_latency
        self.implicit_links = implicit_links
        self.nodes: dict[str, OverlayNode] = {}
        self.links: dict[tuple[str, str], Link] = {}
        self.messages_sent = 0
        self.messages_dropped = 0
        self.messages_relayed = 0
        self.messages_faulted = 0
        # Fault-injection hook (repro.sim.faults): consulted once per
        # send with (src, dst, message); returns ("deliver", extra_delay)
        # to add latency or ("drop", 0.0) to lose the message on the
        # wire.  None means no fault layer is installed.
        self.fault_hook: Callable[[str, str, Message], tuple[str, float]] | None = None

    def add_node(self, name: str) -> OverlayNode:
        if name in self.nodes:
            raise ValueError(f"node {name!r} already exists")
        node = OverlayNode(name, self)
        self.nodes[name] = node
        return node

    def add_link(
        self,
        src: str,
        dst: str,
        bandwidth: float | None = None,
        latency: float | None = None,
    ) -> Link:
        """Create (or replace) a link and its reverse."""
        self._require(src)
        self._require(dst)
        link = Link(
            src,
            dst,
            bandwidth=bandwidth or self.default_bandwidth,
            latency=self.default_latency if latency is None else latency,
        )
        self.links[(src, dst)] = link
        self.links[(dst, src)] = Link(
            dst, src, bandwidth=link.bandwidth, latency=link.latency
        )
        return link

    def link(self, src: str, dst: str) -> Link:
        """The link src->dst, creating a default one on first use
        (full-mesh mode only)."""
        key = (src, dst)
        if key not in self.links:
            if not self.implicit_links:
                raise KeyError(f"no link {src!r} -> {dst!r} (implicit links disabled)")
            self._require(src)
            self._require(dst)
            self.links[key] = Link(
                src, dst, bandwidth=self.default_bandwidth, latency=self.default_latency
            )
        return self.links[key]

    def shortest_path(self, src: str, dst: str) -> list[str] | None:
        """Fewest-hop node path src..dst over explicit links (BFS)."""
        if src == dst:
            return [src]
        frontier = [(src, [src])]
        seen = {src}
        while frontier:
            current, path = frontier.pop(0)
            for (a, b) in self.links:
                if a != current or b in seen:
                    continue
                if b == dst:
                    return path + [b]
                seen.add(b)
                frontier.append((b, path + [b]))
        return None

    def _require(self, name: str) -> OverlayNode:
        try:
            return self.nodes[name]
        except KeyError:
            raise KeyError(f"unknown overlay node {name!r}") from None

    def send(self, src: str, dst: str, message: Message) -> float:
        """Send a message; returns its scheduled delivery time.

        With ``implicit_links`` (the default) a direct link is used,
        created on demand.  Without it, the message is relayed along
        the fewest-hop path of explicit links, each hop charging its
        own serialization and latency.  Messages to failed nodes are
        still transmitted (the sender cannot know) and dropped on
        delivery.
        """
        self._require(src)
        target = self._require(dst)
        message.src = src
        message.dst = dst
        message.sent_at = self.sim.now
        if self.implicit_links or (src, dst) in self.links:
            path = [src, dst]
        else:
            found = self.shortest_path(src, dst)
            if found is None:
                raise KeyError(f"no path from {src!r} to {dst!r}")
            path = found
            self.messages_relayed += max(len(path) - 2, 0)
        self.messages_sent += 1
        fault_delay = 0.0
        if self.fault_hook is not None:
            verdict, amount = self.fault_hook(src, dst, message)
            if verdict == "drop":
                # Lost on the wire: the link is still charged for the
                # serialization (the sender transmitted in good faith).
                self.messages_faulted += 1
                self.messages_dropped += 1
                link = self.link(src, dst) if self.implicit_links or (src, dst) in self.links else None
                if link is not None:
                    start = max(self.sim.now, link.busy_until)
                    link.busy_until = start + message.size / link.bandwidth
                    link.messages_sent += 1
                    link.bytes_sent += message.size
                return self.sim.now
            fault_delay = max(0.0, amount)
        departure = self.sim.now
        for hop_src, hop_dst in zip(path, path[1:]):
            link = self.link(hop_src, hop_dst)
            start = max(departure, link.busy_until)
            serialization_end = start + message.size / link.bandwidth
            link.busy_until = serialization_end
            link.messages_sent += 1
            link.bytes_sent += message.size
            departure = serialization_end + link.latency
        departure += fault_delay
        if len(path) > 2 and any(self.nodes[n].failed for n in path[1:-1]):
            # A failed relay swallows the message mid-path.
            self.sim.schedule_at(departure, self._drop_relayed)
        else:
            self.sim.schedule_at(departure, self._deliver, target, message)
        return departure

    def _drop_relayed(self) -> None:
        self.messages_dropped += 1

    def _deliver(self, node: OverlayNode, message: Message) -> None:
        if node.failed:
            self.messages_dropped += 1
            return
        node.deliver(message)

    def node(self, name: str) -> OverlayNode:
        return self._require(name)

    def __repr__(self) -> str:
        return f"Overlay({len(self.nodes)} nodes, {len(self.links)} links)"
