"""Aurora*: a distributed Aurora deployment in one domain (Sections 3.1, 5).

An :class:`AuroraStarSystem` runs a single query network across multiple
Aurora nodes on the simulated overlay.  Boxes are placed on nodes by a
``placement`` map; arcs between boxes on different nodes become network
transfers.  "When an Aurora query network is first deployed, the
Aurora* system will create a crude partitioning of boxes across a
network of available nodes, perhaps as simple as running everything on
one node" — :meth:`deploy` accepts any placement, including that crude
one, and the load-management machinery (sliding/splitting/daemon)
refines it at run time.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.query import Arc, QueryNetwork
from repro.core.tuples import StreamTuple
from repro.distributed.node import AuroraNode
from repro.network.catalog import IntraParticipantCatalog
from repro.network.overlay import Message, Overlay
from repro.network.transport import (
    MESSAGE_HEADER_BYTES,
    TUPLE_BYTES,
    train_frame_size,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer
from repro.sim import Simulator


class DeploymentError(RuntimeError):
    """Raised for invalid placements or node operations."""


class AuroraStarSystem:
    """A query network running across a set of Aurora nodes.

    Args:
        network: the (single, global) query network.
        sim: discrete-event simulator; a fresh one is created if omitted.
        default_latency: overlay link latency.
        metrics: shared observability registry; a fresh enabled one is
            created if omitted.  Nodes and transports fold their
            counters into it.
        tracer: optional span tracer; when sampling is active, source
            tuples start traces at :meth:`push` and spans follow them
            across node boundaries.
    """

    def __init__(
        self,
        network: QueryNetwork,
        sim: Simulator | None = None,
        default_latency: float = 0.001,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ):
        network.validate()
        self.network = network
        self.sim = sim or Simulator()
        self.overlay = Overlay(self.sim, default_latency=default_latency)
        self.nodes: dict[str, AuroraNode] = {}
        self.placement: dict[str, str] = {}
        self.migrating: set[str] = set()
        self.outputs: dict[str, list[StreamTuple]] = {n: [] for n in network.outputs}
        self.output_latencies: dict[str, list[float]] = {n: [] for n in network.outputs}
        self.tuples_delivered = 0
        self.control_messages = 0
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        self._tracing = tracer is not None and tracer.active
        self._m_ingest = self.metrics.labelled("system.ingest.tuples", "input")
        self._m_delivered = self.metrics.labelled("system.delivered.tuples", "stream")
        # Ingress binding: the node where a source physically delivers
        # its events (Section 4.2).  When the consumer of an input arc
        # lives elsewhere, tuples cross the overlay from the ingress
        # node — this is what makes upstream box sliding (Figure 4)
        # save real bandwidth.
        self.input_ingress: dict[str, str] = {}
        # The intra-participant catalog (Section 4.1): query-piece
        # locations are "always propagated" here on every deploy,
        # slide and split.
        self.catalog = IntraParticipantCatalog("local")
        self.catalog.define("query", network.name, network)
        self._output_subscribers: dict[str, list] = {}
        # boxes_on()'s grouping, stored with the (network, placement)
        # key it was computed at and recomputed on the first read after
        # the key moves; set_placement is the only writer of a
        # placement that matters to it.
        self._placement_revision = 0
        self._hosted: tuple[tuple, dict[str, list[str]]] = ((), {})

    # -- topology ---------------------------------------------------------------

    def add_node(self, name: str, cpu_capacity: float = 1.0, **node_kwargs) -> AuroraNode:
        """Register an Aurora node in the domain."""
        if name in self.nodes:
            raise DeploymentError(f"node {name!r} already exists")
        node = AuroraNode(self, name, cpu_capacity=cpu_capacity, **node_kwargs)
        self.nodes[name] = node
        return node

    def deploy(self, placement: dict[str, str]) -> None:
        """Place every box on a node.

        Raises :class:`DeploymentError` unless the placement covers
        exactly the network's boxes and names known nodes.
        """
        missing = set(self.network.boxes) - set(placement)
        if missing:
            raise DeploymentError(f"boxes not placed: {sorted(missing)}")
        extra = set(placement) - set(self.network.boxes)
        if extra:
            raise DeploymentError(f"placement names unknown boxes: {sorted(extra)}")
        unknown_nodes = set(placement.values()) - set(self.nodes)
        if unknown_nodes:
            raise DeploymentError(f"placement names unknown nodes: {sorted(unknown_nodes)}")
        self.placement = {}
        for box_id, node in placement.items():
            self.set_placement(box_id, node)

    def set_placement(self, box_id: str, node: str) -> None:
        """Record where a box runs, propagating to the catalog.

        "For queries, the catalog holds information on the content and
        location of each running piece of the query" (Section 4.1).
        """
        self.placement[box_id] = node
        self._placement_revision += 1
        self.catalog.place_query_piece(self.network.name, box_id, node)

    def deploy_all_on(self, node_name: str) -> None:
        """The paper's crude initial partitioning: everything on one node."""
        self.deploy({box_id: node_name for box_id in self.network.boxes})

    def place(self, box_id: str) -> str:
        """The node currently hosting ``box_id``."""
        try:
            return self.placement[box_id]
        except KeyError:
            raise DeploymentError(f"box {box_id!r} is not placed") from None

    def boxes_on(self, node_name: str) -> list[str]:
        """Box ids currently hosted by a node (topological order)."""
        return list(self.hosted_boxes(node_name))

    def hosted_boxes(self, node_name: str) -> Sequence[str]:
        """:meth:`boxes_on` without the copy: the cached grouping
        itself, for the node's per-work-event reads.  Do not mutate."""
        key = (self.network.revision, self._placement_revision)
        if self._hosted[0] != key:
            hosted: dict[str, list[str]] = {}
            for box_id in self.network.topological_order():
                hosted.setdefault(self.placement.get(box_id), []).append(box_id)
            self._hosted = (key, hosted)
        return self._hosted[1].get(node_name, ())

    # -- ingestion ----------------------------------------------------------------

    def bind_input(self, input_name: str, node_name: str) -> None:
        """Pin a source stream's ingress to a node (Section 4.2).

        Events for this input enter the system at ``node_name``; if the
        consuming box lives on another node, each tuple crosses the
        overlay (counted on the link) before being processed.
        """
        if input_name not in self.network.inputs:
            raise KeyError(f"network has no input {input_name!r}")
        if node_name not in self.nodes:
            raise DeploymentError(f"unknown node {node_name!r}")
        self.input_ingress[input_name] = node_name

    def push(self, input_name: str, tup: StreamTuple) -> None:
        """Inject one source tuple (at the current simulated time).

        The tuple's timestamp is set to ``sim.now`` if unset (0.0), so
        output latency is measured from entry into the system.
        """
        if input_name not in self.network.inputs:
            raise KeyError(f"network has no input {input_name!r}")
        if tup.timestamp == 0.0 and self.sim.now > 0.0:
            tup = tup.with_metadata(timestamp=self.sim.now)
        self._m_ingest[input_name].inc()
        if self._tracing and tup.trace is None:
            # Only fresh tuples start traces: a tuple arriving over a
            # Medusa bridge already carries its cross-participant trace.
            ctx = self.tracer.start_trace(f"source:{input_name}", at=tup.timestamp)
            if ctx is not None:
                tup.trace = ctx
        ingress = self.input_ingress.get(input_name)
        for arc in self.network.inputs[input_name]:
            kind, ref = arc.target
            if (
                ingress is not None
                and kind != "out"
                and self.place(str(kind)) != ingress
            ):
                # The event must cross from the ingress node to the
                # consumer's node.
                size = train_frame_size(1, TUPLE_BYTES, MESSAGE_HEADER_BYTES)
                message = Message("tuples", {"arc": arc.id, "tuples": [tup]}, size=size)
                self.overlay.send(ingress, self.place(str(kind)), message)
            else:
                self.enqueue_arc(arc, [tup])

    def schedule_source(self, input_name: str, tuples: Iterable[StreamTuple]) -> int:
        """Schedule timestamped tuples to be pushed at their timestamps."""
        count = 0
        for tup in tuples:
            self.sim.schedule_at(max(tup.timestamp, self.sim.now), self.push, input_name, tup)
            count += 1
        return count

    # -- tuple movement -------------------------------------------------------------

    def enqueue_arc(self, arc: Arc, tuples: list[StreamTuple]) -> None:
        """Hand tuples to an arc's consumer, wherever it currently lives."""
        kind, ref = arc.target
        if kind == "out":
            for tup in tuples:
                self.deliver_output(str(ref), tup)
            return
        node = self.nodes[self.place(str(kind))]
        node.enqueue_local(arc, tuples)

    def subscribe_output(self, output_name: str, callback) -> None:
        """Register a live consumer of an output stream.

        Callbacks receive each delivered tuple; this is how
        inter-participant bridges (Medusa) and attached applications
        tap an Aurora* deployment's outputs.
        """
        if output_name not in self.network.outputs:
            raise KeyError(f"network has no output {output_name!r}")
        self._output_subscribers.setdefault(output_name, []).append(callback)

    def deliver_output(self, output_name: str, tup: StreamTuple) -> None:
        """An output tuple reached its application."""
        self.outputs.setdefault(output_name, []).append(tup)
        self.output_latencies.setdefault(output_name, []).append(
            self.sim.now - tup.timestamp
        )
        self.tuples_delivered += 1
        self._m_delivered[output_name].inc()
        if self._tracing and tup.trace is not None:
            self.tracer.event(
                tup.trace, f"deliver:{output_name}", at=self.sim.now
            )
        for callback in self._output_subscribers.get(output_name, []):
            callback(tup)

    # -- execution -------------------------------------------------------------------

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Advance the simulation."""
        self.sim.run(until=until, max_events=max_events)

    def flush(self) -> None:
        """End-of-stream: drain all queues, then flush windowed boxes.

        Flushing happens in topological order across nodes so merged
        aggregates (split networks) finalize correctly.
        """
        self.run()
        for box_id in self.network.topological_order():
            box = self.network.boxes[box_id]
            node = self.nodes[self.place(box_id)]
            node.drain_box(box_id)
            self.run()
            emissions = box.operator.flush()
            if emissions:
                box.tuples_out += len(emissions)
                # The queue is drained here, so a wake-up this routing
                # makes is the next event: owed, not scheduled.
                self.sim.call(node.route_emissions, box, emissions)
            self.run()

    # -- metrics ----------------------------------------------------------------------

    def mean_latency(self, output_name: str) -> float:
        latencies = self.output_latencies.get(output_name, [])
        return sum(latencies) / len(latencies) if latencies else 0.0

    def throughput(self, output_name: str) -> float:
        """Delivered tuples per virtual second on one output."""
        if self.sim.now <= 0:
            return 0.0
        return len(self.outputs.get(output_name, [])) / self.sim.now

    def node_utilizations(self) -> dict[str, float]:
        """Busy fraction per node over the whole run."""
        span = self.sim.now
        if span <= 0:
            return {name: 0.0 for name in self.nodes}
        return {
            name: min(1.0, node.busy_time / span) for name, node in self.nodes.items()
        }

    def link_bytes(self, src: str, dst: str) -> int:
        """Bytes carried so far by the src->dst overlay link."""
        link = self.overlay.links.get((src, dst))
        return link.bytes_sent if link else 0

    def __repr__(self) -> str:
        return (
            f"AuroraStarSystem({len(self.nodes)} nodes, "
            f"{len(self.network.boxes)} boxes, t={self.sim.now:.4f})"
        )
