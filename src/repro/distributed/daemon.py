"""The query-optimizer / load-share daemon (Section 5.1).

"On every node that runs a piece of Aurora network, a query
optimizer/load share daemon will run periodically in the background.
The main task of this daemon will be to adjust the load of its host
node ... by either off-loading computation or accepting additional
computation. ... All dynamic reconfiguration will take place in such a
decentralized fashion, involving only local, pair-wise interactions
between Aurora nodes."

Each daemon periodically measures its node's load, probes neighbors
with control messages, and — when overloaded and a neighbor has
headroom — either *slides* a box to the neighbor or, when a single hot
box dominates, *splits* it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.columnar import ColumnarTrain
from repro.distributed.policy import (
    Thresholds,
    choose_offload_candidate,
    hash_fraction_predicate,
    hottest_box,
)
from repro.distributed.sliding import slide_box
from repro.distributed.splitting import SplitError, split_box_distributed
from repro.network.overlay import Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.distributed.system import AuroraStarSystem


class LoadShareDaemon:
    """Periodic decentralized load balancing for one node.

    Args:
        system: the Aurora* deployment.
        node_name: the host node; it interacts pairwise with every
            other node of the domain.
        period: daemon wake-up interval (virtual seconds).
        thresholds: initiation policy (high/low water, cooldown).
        allow_split: whether box splitting may be used when sliding
            cannot help (the heavier mechanism of Section 5.1).
    """

    PROBE_SIZE = 24
    REPLY_SIZE = 24

    def __init__(
        self,
        system: "AuroraStarSystem",
        node_name: str,
        period: float = 0.5,
        thresholds: Thresholds | None = None,
        allow_split: bool = True,
    ):
        self.system = system
        self.node_name = node_name
        self.period = period
        self.thresholds = thresholds or Thresholds()
        self.allow_split = allow_split
        self._last_busy = 0.0
        self._last_move_at = -float("inf")
        self._neighbor_load: dict[str, float] = {}
        self.moves: list[tuple[float, str, str, str]] = []  # (time, kind, box, dest)
        self.ticks = 0
        node = system.nodes[node_name]
        # The probe handler lives on the node itself (every node
        # answers probes); the daemon consumes the replies.
        node.overlay_node.on("load_reply", self._on_reply)

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Begin periodic operation on the simulator."""
        self.system.sim.schedule(self.period, self._tick)

    def _tick(self) -> None:
        self.ticks += 1
        node = self.system.nodes[self.node_name]
        if not node.failed:
            self._probe_neighbors()
            load = self.current_load()
            if load > self.thresholds.high_water and self._cooled_down():
                self._try_offload()
        self.system.sim.schedule(self.period, self._tick)

    def _cooled_down(self) -> bool:
        return (
            self.system.sim.now - self._last_move_at >= self.thresholds.cooldown
        )

    # -- load measurement -------------------------------------------------------------

    def current_load(self) -> float:
        """The node's load factor over the last period.

        Busy fraction plus queued-work backlog normalized by the period
        — a node with little recent activity but a deep backlog is
        still overloaded.
        """
        node = self.system.nodes[self.node_name]
        busy_delta = node.busy_time - self._last_busy
        self._last_busy = node.busy_time
        busy_fraction = busy_delta / self.period
        backlog = node.queued_work() / self.period
        return busy_fraction + backlog

    # -- pairwise probing ---------------------------------------------------------------

    def _probe_neighbors(self) -> None:
        for neighbor in sorted(n for n in self.system.nodes if n != self.node_name):
            message = Message(
                "load_probe",
                {"from": self.node_name, "period": self.period},
                size=self.PROBE_SIZE,
            )
            self.system.overlay.send(self.node_name, neighbor, message)
            self.system.control_messages += 1

    def _on_reply(self, message: Message) -> None:
        self._neighbor_load[str(message.payload["from"])] = float(
            message.payload["load"]
        )

    # -- offloading -------------------------------------------------------------------------

    def _try_offload(self) -> None:
        target = self._least_loaded_neighbor()
        if target is None:
            return
        candidate = choose_offload_candidate(self.system, self.node_name, target)
        placed_here = self.system.boxes_on(self.node_name)
        if candidate is not None and len(placed_here) > 1:
            slide_box(self.system, candidate, target)
            self._record("slide", candidate, target)
            return
        if not self.allow_split:
            return
        hot = hottest_box(self.system, self.node_name)
        if hot is None or hot in self.system.migrating:
            return
        box = self.system.network.boxes[hot]
        groupby = getattr(box.operator, "groupby", None)
        group_stable = groupby is not None
        fields = tuple(groupby) if groupby else None
        if fields is None:
            # Content-free fallback: hash all values of the tuple.
            sample_fields = self._input_fields(hot)
            if not sample_fields:
                return
            fields = sample_fields
        try:
            split_box_distributed(
                self.system,
                hot,
                hash_fraction_predicate(0.5, fields),
                to_node=target,
                wsort_timeout=self.period,
                group_stable=group_stable,
            )
        except SplitError:
            return
        self._record("split", hot, target)

    def _input_fields(self, box_id: str) -> tuple[str, ...]:
        """Field names observed on the box's queued input (for hashing)."""
        box = self.system.network.boxes[box_id]
        for arc in box.input_arcs.values():
            if arc.queue:
                head = arc.queue[0]
                if isinstance(head, ColumnarTrain):
                    return tuple(sorted(head.fields))
                return tuple(sorted(head.values))
        return ()

    def _least_loaded_neighbor(self) -> str | None:
        """The probed neighbor with the lowest load below the low-water mark."""
        candidates = [
            (load, name)
            for name, load in sorted(self._neighbor_load.items())
            if load < self.thresholds.low_water
            and not self.system.nodes[name].failed
        ]
        if not candidates:
            return None
        return min(candidates)[1]

    def _record(self, kind: str, box_id: str, target: str) -> None:
        self._last_move_at = self.system.sim.now
        self.moves.append((self.system.sim.now, kind, box_id, target))


def start_daemons(
    system: "AuroraStarSystem",
    period: float = 0.5,
    thresholds: Thresholds | None = None,
    allow_split: bool = True,
) -> dict[str, LoadShareDaemon]:
    """Start one load-share daemon per node; returns them by node name."""
    daemons = {}
    for name in sorted(system.nodes):
        daemon = LoadShareDaemon(
            system,
            name,
            period=period,
            thresholds=thresholds,
            allow_split=allow_split,
        )
        daemon.start()
        daemons[name] = daemon
    return daemons
