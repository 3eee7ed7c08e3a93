"""Elastic auto-parallelism: runtime key-partitioned scale-out (ROADMAP 3).

Box splitting (paper Section 5.1) exists in this repo as a static,
hand-invoked construction (``repro.distributed.splitting``).  This
module closes the loop: an :class:`ElasticityController` watches load on
a probe cadence and rewrites the network *by itself* — splitting a hot
keyed box into consistent-hash partitions, adding replicas on key skew,
and merging back when load falls below a hysteresis band.  The policy
lifecycle (split / re-split / merge with cooldown and hysteresis)
follows the Röger & Mayer elasticity survey; replica placement across
nodes follows the Benoit et al. in-network resource-allocation line
(round-robin over a configured pool here).

Structure of an elastic group (replicas ``k >= 1``)::

            +--------------+    +-----------+    +-----------+
    in ---> | Partition    |===>| replica i |===>| Union(k)  |---> out
            | Router (ring)|    | (0..k-1)  |    | "gather"  |
            +--------------+    +-----------+    +-----------+

Replica 0 is always the *original* box (it keeps its id, its state and
its downstream identity); clones are named ``{box}__r{n}`` with ``n``
ever-increasing so ids never collide across scale cycles.  Routing is a
:class:`PartitionRing` — a consistent-hash ring with slot-name
indirection, so adding/removing one replica moves only the keys owned
by that replica's vnodes (bounded-movement repartitioning) and never
renames surviving slots.

No rewrite is bracketed: the ``QueryNetwork`` mutators bump
``network.revision``, and the engine and the Aurora* system revalidate
everything they derive from the network's shape (superboxes, scheduling
order, ``boxes_on``) on their next call.  The engine's forced resync is
only for edits that bypass the mutators, and its derived public views
(``queued_counts``, ``box_order``, ...) are current as of its last call.

Two rewrite executors ("planes") share the structural transformations:

* :class:`EnginePlane` runs against a single :class:`AuroraEngine` in
  virtual time.  Rewrites are synchronous; stateful (count-mode Tumble)
  boxes are supported because the plane can quiesce (drain) the group
  and migrate window state exactly.
* :class:`SystemPlane` runs against an :class:`AuroraStarSystem` with
  real node failures.  Scale-out is a two-phase commit (wire the new
  replica's port first, flip the ring only after a transfer delay — a
  node crash before the commit rolls back with *zero* tuples at risk),
  scale-in is a three-phase retire (stop routing, settle+drain,
  settle+detach), and the death of a committed replica is repaired with
  a *declared* loss of ``router.routed[slot] - replica.tuples_in``.
  Only stateless boxes are eligible: a synchronous cross-overlay drain
  cannot exist without advancing simulated time.

The property-test harness (``repro.sim.elasticity_sweep`` +
``tests/core/test_elasticity_property.py``) proves every rewrite safe:
over seeded random networks × traffic, scale-out / re-split / merge
preserve per-stream output multisets and per-box counter reconciliation,
and mid-rewrite node crashes lose nothing beyond the declared count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.core.operators.base import Operator
from repro.core.operators.partition import PartitionRouter
from repro.core.operators.tumble import Tumble
from repro.core.operators.union import Union
from repro.core.tuples import key_getter
from repro.network.dht import ConsistentHashRing, partition_key
from repro.obs.registry import Counter, MetricsRegistry
from repro.obs.trace import Tracer

if TYPE_CHECKING:
    from repro.core.engine import AuroraEngine
    from repro.core.query import QueryNetwork
    from repro.distributed.system import AuroraStarSystem


class ElasticityError(Exception):
    """Raised for ineligible boxes or invalid elastic rewrites."""


# ---------------------------------------------------------------------------
# Partition ring


class PartitionRing:
    """Consistent-hash ring with slot-name indirection.

    Replica *indexes* (router output ports) shift when a middle replica
    retires, but hashing is by stable slot *name* (``s0, s1, ...``,
    never reused), so an index shift moves **zero** keys: only the keys
    owned by an added/removed slot's vnodes ever change owner.  That is
    the bounded-movement property ROADMAP item 3 asks for.

    Routing resolves slot -> output port through an explicit ``ports``
    map, NOT through the slot's current list position.  The two disagree
    during a staged retire/repair: ``remove()`` happens in phase 1 (stop
    routing to the victim at once) while the victim's port is detached —
    and the surviving ports compacted (:meth:`compact_ports`) — only a
    settle later, after in-flight overlay traffic has landed.  In that
    window a surviving slot's list index is already shifted down but its
    wired port is not; position-based routing would send its keys to the
    victim's port (a dead node, on the repair path) undeclared.
    """

    def __init__(self, fields: Iterable[str]):
        self.fields = tuple(fields)
        if not self.fields:
            raise ElasticityError("partition fields must be non-empty")
        self._key_of = key_getter(self.fields)
        self._ring = ConsistentHashRing()
        self._slots: list[str] = []
        self.ports: dict[str, int] = {}
        self._created = 0

    @property
    def size(self) -> int:
        return len(self._slots)

    def add(self) -> int:
        """Add one slot; returns its index (always the current end).

        The new slot's port is ``size - 1``: additions only happen with
        no retire/repair in flight (the controller defers every action
        while a group is pending), when ports are the identity map.
        """
        name = f"s{self._created}"
        self._created += 1
        self._ring.add_node(name)
        self._slots.append(name)
        self.ports[name] = len(self._slots) - 1
        return len(self._slots) - 1

    def remove(self, index: int) -> str:
        """Remove the slot at ``index``; returns its (retired) name.

        Surviving slots keep their ``ports`` entries untouched until the
        caller detaches the victim's port and calls ``compact_ports``.
        """
        if len(self._slots) <= 1:
            raise ElasticityError("cannot remove the last ring slot")
        name = self._slots.pop(index)
        self._ring.remove_node(name)
        del self.ports[name]
        return name

    def compact_ports(self, removed_port: int) -> None:
        """Shift ports above a just-detached one down by one."""
        for name, port in self.ports.items():
            if port > removed_port:
                self.ports[name] = port - 1

    def slot_name(self, index: int) -> str:
        return self._slots[index]

    def owner_port(self, key: tuple) -> int:
        """Router output port owning a partition-key tuple."""
        return self.ports[self._ring.owner(partition_key(key))]

    def route(self, values: Mapping[str, Any]) -> tuple[int, str]:
        """(output port, slot name) owning a tuple's values dict."""
        name = self._ring.owner(partition_key(self._key_of(values)))
        return self.ports[name], name

    def __repr__(self) -> str:
        return f"PartitionRing({','.join(self.fields)}: {self._slots})"


# ---------------------------------------------------------------------------
# Policy / spec / group state


@dataclass(frozen=True)
class ElasticityPolicy:
    """Hysteresis band and pacing for the controller.

    ``high_water``/``low_water`` bound the load-factor hysteresis band:
    scale out at or above high water, scale in at or below low water,
    do nothing in between (prevents flapping); ``cooldown`` spaces
    consecutive rewrites of one group.  ``skew_factor`` classifies a
    scale-out as a *re-split*: when the hottest ring slot's routed
    share since the last probe exceeds ``skew_factor`` times the mean
    share, load is key-skewed rather than volume-driven (the factor
    must stay below the replica count to be reachable).
    ``capacity_per_replica`` models provisioning on the
    engine plane (added to ``engine.cpu_capacity`` per replica); the
    system plane gets capacity from real nodes instead.
    ``transfer_delay``/``settle_delay`` pace the system plane's
    two-phase commit and retire protocols; ``settle_delay`` must be at
    least the overlay's maximum message delay.
    """

    high_water: float = 0.8
    low_water: float = 0.25
    skew_factor: float = 1.5
    cooldown: float = 0.5
    max_replicas: int = 4
    capacity_per_replica: float = 0.0
    transfer_delay: float = 0.05
    settle_delay: float = 0.05

    def __post_init__(self) -> None:
        if not 0 < self.low_water < self.high_water:
            raise ValueError("need 0 < low_water < high_water")
        if self.max_replicas < 2:
            raise ValueError("max_replicas must be >= 2")
        if self.skew_factor <= 1.0:
            raise ValueError("skew_factor must be > 1")
        if self.cooldown < 0:
            raise ValueError("cooldown must be non-negative")
        if self.capacity_per_replica < 0:
            raise ValueError("capacity_per_replica must be non-negative")


@dataclass(frozen=True)
class ElasticitySpec:
    """Declarative controller config for scenarios: boxes to watch.

    ``boxes`` maps box id -> partition fields (None derives the fields
    from a Tumble's groupby key).
    """

    boxes: Mapping[str, tuple[str, ...] | None]
    policy: ElasticityPolicy = ElasticityPolicy()


@dataclass
class ElasticGroup:
    """Controller-side state for one elastic box."""

    box_id: str
    fields: tuple[str, ...]
    stateful: bool
    router_id: str
    union_id: str
    ring: PartitionRing | None = None
    replicas: list[str] = field(default_factory=list)
    nodes: list[str] = field(default_factory=list)
    pending: dict[str, Any] | None = None
    last_action: float = float("-inf")
    next_replica: int = 1
    routed_snapshot: dict[str, int] = field(default_factory=dict)

    @property
    def split(self) -> bool:
        return self.ring is not None

    def new_replica_id(self) -> str:
        rid = f"{self.box_id}__r{self.next_replica}"
        self.next_replica += 1
        return rid


def resolve_partition_fields(
    operator: Operator,
    fields: Iterable[str] | None,
    allow_stateful: bool = True,
) -> tuple[tuple[str, ...], bool]:
    """Validate elastic eligibility; returns (fields, stateful).

    Eligible boxes are single-input single-output, and either stateless
    (explicit fields required) or a count-mode Tumble without timeout
    whose groupby covers the partition fields — the group-stability
    condition: every tuple of a window's group hashes to one replica,
    so whole windows (never window fragments) move between replicas.
    """
    if operator.arity != 1 or operator.n_outputs != 1:
        raise ElasticityError(
            f"{operator.describe()} is not single-input/single-output "
            f"(arity={operator.arity}, n_outputs={operator.n_outputs})"
        )
    if not operator.stateful:
        resolved = tuple(fields or ())
        if not resolved:
            raise ElasticityError(
                "stateless elastic boxes need explicit partition fields"
            )
        return resolved, False
    if not allow_stateful:
        raise ElasticityError(
            f"{operator.describe()} is stateful; this plane can only "
            "quiesce stateless boxes (no synchronous cross-node drain)"
        )
    if not isinstance(operator, Tumble):
        raise ElasticityError(
            f"{operator.describe()} is stateful and not elastically splittable"
        )
    if operator.mode != "count":
        raise ElasticityError(
            "run-mode Tumble windows depend on whole-stream tuple order; "
            "key partitioning would tear runs apart"
        )
    if operator.timeout != float("inf"):
        raise ElasticityError(
            "Tumble timeouts couple groups through global arrival order; "
            "an elastic split would change which windows time out"
        )
    resolved = tuple(fields) if fields else operator.groupby
    if not set(resolved) <= set(operator.groupby):
        raise ElasticityError(
            f"partition fields {resolved} must be a subset of the groupby "
            f"key {operator.groupby} for group stability"
        )
    return resolved, True


# ---------------------------------------------------------------------------
# Structural transformations (shared by both planes)
#
# These mutate the QueryNetwork only; the calling plane does any
# quiescing (drain) first.


def _install_skeleton(network: "QueryNetwork", group: ElasticGroup) -> None:
    """Insert router and gather-union around the elastic box (k = 1).

    The box's input arc is rewired wholesale onto the router, so tuples
    already queued on it flow through the new routing — no drain needed
    for the initial split.  The box keeps its output identity: its old
    output arcs now hang off the union.
    """
    box = network.boxes[group.box_id]
    operator = box.operator
    assert group.ring is not None and group.ring.size == 1
    router = PartitionRouter(group.ring, cost_per_tuple=operator.cost_per_tuple * 0.1)
    union = Union(1, cost_per_tuple=operator.cost_per_tuple * 0.05)
    network.add_box(group.router_id, router)
    network.add_box(group.union_id, union)
    in_arc = box.input_arcs[0]
    network.rewire_target(in_arc, group.router_id)
    for arc in list(box.output_arcs.get(0, [])):
        network.rewire_source(arc, group.union_id)
    network.connect(
        (group.router_id, 0), (group.box_id, 0),
        arc_id=f"{group.box_id}__elastic_in",
    )
    network.connect(
        (group.box_id, 0), (group.union_id, 0),
        arc_id=f"{group.box_id}__elastic_out",
    )
    group.replicas = [group.box_id]


def _attach_replica(network: "QueryNetwork", group: ElasticGroup) -> str:
    """Wire a fresh clone at the next router/union port; returns its id.

    The ring is *not* touched: until the caller commits (``ring.add()``)
    no tuple routes to the new port, which is what makes the system
    plane's prepare phase free to roll back.
    """
    index = len(group.replicas)
    base = network.boxes[group.box_id].operator
    rid = group.new_replica_id()
    network.add_box(rid, base.clone())
    network.boxes[group.router_id].operator.n_outputs = index + 1
    network.boxes[group.union_id].operator.arity = index + 1
    network.connect((group.router_id, index), (rid, 0), arc_id=f"{rid}__in")
    network.connect((rid, 0), (group.union_id, index), arc_id=f"{rid}__out")
    group.replicas.append(rid)
    return rid


def _detach_replica(network: "QueryNetwork", group: ElasticGroup, index: int) -> str:
    """Remove the replica at ``index`` and compact higher ports down.

    The caller must have emptied (or written off) the replica's arcs.
    Replica 0 is the original box and is never detached — teardown via
    :func:`_teardown` handles the k == 1 end state.
    """
    if index == 0:
        raise ElasticityError("replica 0 is the original box; tear down instead")
    rid = group.replicas.pop(index)
    box = network.boxes[rid]
    in_arc = box.input_arcs.get(0)
    if in_arc is not None:
        network.remove_arc(in_arc.id)
    for arc in list(box.output_arcs.get(0, [])):
        network.remove_arc(arc.id)
    network.remove_box(rid)
    router_box = network.boxes[group.router_id]
    union_box = network.boxes[group.union_id]
    for port in range(index + 1, len(group.replicas) + 1):
        for arc in list(router_box.output_arcs.get(port, [])):
            network.rewire_source(arc, (group.router_id, port - 1))
        shifted = union_box.input_arcs.get(port)
        if shifted is not None:
            network.rewire_target(shifted, (group.union_id, port - 1))
    if group.ring is not None:
        # Ring routing tracked the old wiring through any staged window;
        # now that the arcs have shifted, shift the slot->port map too.
        group.ring.compact_ports(index)
    router_box.operator.n_outputs = max(1, len(group.replicas))
    union_box.operator.arity = max(1, len(group.replicas))
    return rid


def _teardown(network: "QueryNetwork", group: ElasticGroup) -> None:
    """Remove the k == 1 skeleton, restoring the original wiring.

    The caller must have drained router, box and union first (all three
    are colocated on the system plane's home node, so a synchronous
    local drain exists there too).
    """
    box = network.boxes[group.box_id]
    router_box = network.boxes[group.router_id]
    union_box = network.boxes[group.union_id]
    network.remove_arc(box.input_arcs[0].id)
    network.remove_arc(box.output_arcs[0][0].id)
    network.rewire_target(router_box.input_arcs[0], group.box_id)
    for arc in list(union_box.output_arcs.get(0, [])):
        network.rewire_source(arc, (group.box_id, 0))
    network.remove_box(group.router_id)
    network.remove_box(group.union_id)
    group.ring = None
    group.replicas = []


def _migrate_windows(network: "QueryNetwork", group: ElasticGroup) -> int:
    """Move count-Tumble window entries to their current ring owners.

    Exact under group stability: a window entry is keyed by the groupby
    tuple, the partition key is a sub-tuple of it, and the group was
    quiesced first — so moving the ``(state, count, first, deps)`` entry
    relocates the *entire* group mid-window with byte-identical results.
    Consistent hashing bounds the move set to keys owned by the slots
    that changed.
    """
    ring = group.ring
    assert ring is not None
    ops = [network.boxes[rid].operator for rid in group.replicas]
    positions = [ops[0].groupby.index(f) for f in ring.fields]
    moved = 0
    for index, op in enumerate(ops):
        windows = op._windows
        for key in list(windows):
            owner = ring.owner_port(tuple(key[p] for p in positions))
            if owner != index:
                ops[owner]._windows[key] = windows.pop(key)
                moved += 1
    return moved


def _adopt_windows(
    network: "QueryNetwork", group: ElasticGroup, orphans: dict
) -> None:
    """Re-home window entries saved off a retired replica."""
    ring = group.ring
    assert ring is not None
    ops = [network.boxes[rid].operator for rid in group.replicas]
    positions = [ops[0].groupby.index(f) for f in ring.fields]
    for key, entry in orphans.items():
        owner = ring.owner_port(tuple(key[p] for p in positions))
        ops[owner]._windows[key] = entry


# ---------------------------------------------------------------------------
# Engine plane


class EnginePlane:
    """Synchronous rewrite executor over one :class:`AuroraEngine`.

    Supports stateful (count-Tumble) elastic boxes: the plane can
    quiesce a group exactly (``engine.drain_boxes``) before moving
    window state, because engine execution and the controller share one
    virtual-time thread.
    """

    supports_stateful = True

    def __init__(self, engine: "AuroraEngine"):
        self.engine = engine

    @property
    def network(self) -> "QueryNetwork":
        return self.engine.network

    def now(self) -> float:
        return self.engine.clock

    def load_factor(self) -> float:
        return self.engine.load_factor()

    def check_eligible(
        self, box_id: str, fields: Iterable[str] | None
    ) -> tuple[tuple[str, ...], bool]:
        return resolve_partition_fields(
            self.network.boxes[box_id].operator, fields, allow_stateful=True
        )

    def failed_replicas(self, group: ElasticGroup) -> list[int]:
        return []

    # -- rewrites ---------------------------------------------------------

    def split(self, group: ElasticGroup, controller: "ElasticityController") -> bool:
        """1 -> 2 replicas.  Synchronous; queued tuples simply reroute."""
        ring = PartitionRing(group.fields)
        ring.add()
        group.ring = ring
        _install_skeleton(self.network, group)
        _attach_replica(self.network, group)
        ring.add()
        if group.stateful:
            _migrate_windows(self.network, group)
        self.engine.cpu_capacity += controller.policy.capacity_per_replica
        return True

    def scale_out(self, group: ElasticGroup, controller: "ElasticityController") -> bool:
        """k -> k+1.  Stateful groups quiesce first so no in-flight tuple
        of a moving key can reach its old owner after the ring flips."""
        if group.stateful:
            self.engine.drain_boxes([group.router_id, *group.replicas])
        _attach_replica(self.network, group)
        group.ring.add()
        if group.stateful:
            _migrate_windows(self.network, group)
        self.engine.cpu_capacity += controller.policy.capacity_per_replica
        return True

    def scale_in(self, group: ElasticGroup, controller: "ElasticityController") -> bool:
        """k -> k-1 (highest replica retires); k == 2 tears down to the
        plain box.  Quiesce-first makes the victim's arcs empty and its
        windows safe to re-home, so nothing is lost."""
        engine = self.engine
        engine.drain_boxes([group.router_id, *group.replicas, group.union_id])
        index = len(group.replicas) - 1
        victim = self.network.boxes[group.replicas[index]].operator
        orphans: dict = {}
        if group.stateful:
            orphans = dict(victim._windows)
            victim._windows.clear()
        group.ring.remove(index)
        _detach_replica(self.network, group, index)
        if orphans:
            _adopt_windows(self.network, group, orphans)
        engine.cpu_capacity = max(
            1e-9, engine.cpu_capacity - controller.policy.capacity_per_replica
        )
        if len(group.replicas) == 1:
            # Arcs are already empty (drained above, nothing ran since).
            _teardown(self.network, group)
        return True

    def merge(self, group: ElasticGroup, controller: "ElasticityController") -> bool:
        """Tear down a k == 1 skeleton (left by a system-plane rollback
        path; on this plane scale_in reaches it directly)."""
        self.engine.drain_boxes([group.router_id, group.box_id, group.union_id])
        _teardown(self.network, group)
        return True

    def repair(self, group: ElasticGroup, index: int, controller) -> bool:
        raise ElasticityError("the engine plane has no nodes to fail")


# ---------------------------------------------------------------------------
# System plane


class SystemPlane:
    """Asynchronous rewrite executor over an :class:`AuroraStarSystem`.

    Scale-out is a two-phase commit: *prepare* wires the replica's port
    and places the box on the target node while the ring still routes
    zero tuples to it; *commit* (after ``transfer_delay``) flips the
    ring atomically — or rolls the never-used port back if the target
    died in between, leaving output multisets untouched.  Scale-in is a
    staged retire (stop routing → settle → drain → settle → detach) so
    in-flight overlay messages land before their arcs disappear.  A
    committed replica whose node dies is repaired with a declared loss
    of ``router.routed[slot] - replica.tuples_in``.
    """

    supports_stateful = False

    def __init__(
        self,
        system: "AuroraStarSystem",
        nodes: Iterable[str] | None = None,
        load_window: float = 1.0,
    ):
        self.system = system
        self.pool = list(nodes) if nodes is not None else list(system.nodes)
        self.load_window = load_window
        self._rr = 0

    @property
    def network(self) -> "QueryNetwork":
        return self.system.network

    def now(self) -> float:
        return self.system.sim.now

    def load_factor(self) -> float:
        total = sum(
            node.queued_work()
            for node in self.system.nodes.values()
            if not node.failed
        )
        return total / self.load_window

    def check_eligible(
        self, box_id: str, fields: Iterable[str] | None
    ) -> tuple[tuple[str, ...], bool]:
        return resolve_partition_fields(
            self.network.boxes[box_id].operator, fields, allow_stateful=False
        )

    def failed_replicas(self, group: ElasticGroup) -> list[int]:
        """Indexes of committed replicas currently on failed nodes."""
        if not group.split:
            return []
        ring = group.ring
        failed = []
        for index in range(1, len(group.replicas)):
            pending = group.pending or {}
            if pending.get("rid") == group.replicas[index]:
                continue  # prepare/retire protocols handle their own box
            if index >= ring.size:
                continue  # prepared but uncommitted port
            node = self.system.nodes.get(group.nodes[index])
            if node is not None and node.failed:
                failed.append(index)
        return failed

    def _pick_node(self) -> str:
        """Round-robin over the pool, skipping currently failed nodes."""
        for _ in range(len(self.pool)):
            name = self.pool[self._rr % len(self.pool)]
            self._rr += 1
            if not self.system.nodes[name].failed:
                return name
        return self.pool[self._rr % len(self.pool)]

    def _finish_rewrite(self, *touched: str) -> None:
        self.system.control_messages += 1
        for name in touched:
            node = self.system.nodes.get(name)
            if node is not None:
                node.kick()

    # -- two-phase scale-out ---------------------------------------------

    def split(self, group: ElasticGroup, controller: "ElasticityController") -> bool:
        system = self.system
        ring = PartitionRing(group.fields)
        ring.add()
        group.ring = ring
        _install_skeleton(self.network, group)
        home = system.placement[group.box_id]
        system.set_placement(group.router_id, home)
        system.set_placement(group.union_id, home)
        group.nodes = [home]
        self._prepare_replica(group, controller)
        self._finish_rewrite(home)
        return True

    def scale_out(self, group: ElasticGroup, controller: "ElasticityController") -> bool:
        self._prepare_replica(group, controller)
        self._finish_rewrite(group.nodes[0])
        return True

    def _prepare_replica(self, group: ElasticGroup, controller) -> None:
        rid = _attach_replica(self.network, group)
        target = self._pick_node()
        self.system.set_placement(rid, target)
        group.nodes.append(target)
        group.pending = {"kind": "add", "rid": rid, "node": target}
        self.system.sim.schedule(
            controller.policy.transfer_delay, self._commit_replica, group, controller
        )

    def _commit_replica(self, group: ElasticGroup, controller) -> None:
        pending = group.pending
        if pending is None or pending.get("kind") != "add":
            return
        group.pending = None
        rid, target = pending["rid"], pending["node"]
        if self.system.nodes[target].failed:
            # Crash during transfer: the port never carried a tuple, so
            # unwinding it is exact.  The k==1 skeleton (for an initial
            # split) stays; a later probe scales out again or merges it.
            index = group.replicas.index(rid)
            _detach_replica(self.network, group, index)
            self.system.placement.pop(rid, None)
            group.nodes.pop(index)
            controller.note_rollback(group)
            self._finish_rewrite(group.nodes[0])
            return
        group.ring.add()
        self._finish_rewrite(group.nodes[0], target)

    # -- staged scale-in --------------------------------------------------

    def scale_in(self, group: ElasticGroup, controller: "ElasticityController") -> bool:
        if len(group.replicas) == 1:
            return self.merge(group, controller)
        return self._stop_routing(
            group, len(group.replicas) - 1, "retire", self._retire_drain, controller
        )

    def _stop_routing(
        self, group: ElasticGroup, index: int, kind: str, then, controller
    ) -> bool:
        """Phase 1 of a retire or a repair: remove the slot, so new
        traffic reroutes at once (the ring's slot->port map keeps
        surviving slots on their wired ports until the detach), and run
        ``then`` a settle later."""
        rid = group.replicas[index]
        slot = group.ring.slot_name(index)
        group.ring.remove(index)
        group.pending = {"kind": kind, "rid": rid, "slot": slot}
        self.system.control_messages += 1
        self.system.sim.schedule(
            controller.policy.settle_delay, then, group, controller
        )
        return True

    def _retire_drain(self, group: ElasticGroup, controller) -> None:
        """Settle elapsed: every pre-retire tuple has arrived; drain."""
        rid = group.pending["rid"]
        node = self.system.nodes.get(self.system.placement.get(rid, ""))
        if node is not None and not node.failed:
            node.drain_box(rid)
        self.system.sim.schedule(
            controller.policy.settle_delay, self._excise, group, controller
        )

    def _excise(self, group: ElasticGroup, controller) -> None:
        """Last phase of a retire or a repair.  A settle has elapsed, so
        what the replica emitted (draining, or before dying) has landed:
        drain the gather union, declare the loss
        (:meth:`_declared_loss`), detach the port and the box."""
        pending = group.pending
        group.pending = None
        rid, slot = pending["rid"], pending["slot"]
        index = group.replicas.index(rid)
        self._drain_gather(group)
        lost = self._declared_loss(group, slot, rid)
        _detach_replica(self.network, group, index)
        self.system.placement.pop(rid, None)
        group.nodes.pop(index)
        if lost:
            controller.note_lost(group, lost)
        self._finish_rewrite(*self.pool)

    def merge(self, group: ElasticGroup, controller: "ElasticityController") -> bool:
        """Tear down a k == 1 skeleton: all three boxes are colocated on
        the home node, so a synchronous local drain exists."""
        system = self.system
        home = group.nodes[0]
        node = system.nodes[home]
        if not node.failed:
            for box_id in (group.router_id, group.box_id, group.union_id):
                node.drain_box(box_id)
        _teardown(self.network, group)
        system.placement.pop(group.router_id, None)
        system.placement.pop(group.union_id, None)
        group.nodes = []
        self._finish_rewrite(home)
        return True

    # -- crash repair ------------------------------------------------------

    def repair(self, group: ElasticGroup, index: int, controller) -> bool:
        """A committed replica's node died: excise it, declaring the
        loss — stop routing to it now, detach it a settle later."""
        return self._stop_routing(group, index, "repair", self._excise, controller)

    def _drain_gather(self, group: ElasticGroup) -> None:
        """Process everything queued at the home-node gather union.

        Detaching a replica removes its union-input arc *with* whatever
        is still queued on it — but those tuples arrived safely and must
        not be written off.  The union is colocated with the router on
        the (alive) home node, so a synchronous local drain exists.
        """
        home = self.system.nodes.get(group.nodes[0]) if group.nodes else None
        if home is not None and not home.failed:
            home.drain_box(group.union_id)

    def _declared_loss(self, group: ElasticGroup, slot: str, rid: str) -> int:
        """Tuples charged against a replica leaving the group.

        Two one-sided counts, both from home-side observables (the dead
        node is never consulted):

        * input side — ``routed[slot] - tuples_in``: routed to the slot
          but never processed (queued on the dead node, dropped at its
          enqueue, or in flight to it);
        * output side — ``tuples_out - arrivals``: produced by the
          replica but never landed on its gather arc (a crash discards a
          train's emissions between processing and delivery).

        Called only after a settle, so anything still in flight *from*
        the replica has landed and the difference is a true loss.  For a
        clean (alive, drained) retire both sides are zero.  Units mix
        input and output tuples, but every operator here emits at most
        one tuple per input, so the sum still bounds missing outputs.
        """
        router = self.network.boxes[group.router_id].operator
        replica = self.network.boxes[rid]
        arrived = sum(a.tuples_transferred for a in replica.output_arcs.get(0, []))
        input_loss = max(0, router.routed.get(slot, 0) - replica.tuples_in)
        output_loss = max(0, replica.tuples_out - arrived)
        return input_loss + output_loss


# ---------------------------------------------------------------------------
# Controller


class ElasticityController:
    """The closed loop: watch load, rewrite the network, account it.

    Call :meth:`watch` per elastic box and :meth:`probe` on a cadence
    (the ScenarioRunner probe loop does; the property harness drives it
    directly).  Decisions and outcomes land in the metrics registry —
    ``elasticity.splits`` / ``resplits`` / ``merges`` / ``repairs`` /
    ``rollbacks`` / ``tuples_lost`` plus a per-box labeled
    ``elasticity.decisions`` — and each rewrite opens a trace span when
    a sampling tracer is attached.
    """

    _COUNTERS = ("splits", "resplits", "merges", "repairs", "rollbacks")

    def __init__(
        self,
        plane: EnginePlane | SystemPlane,
        policy: ElasticityPolicy | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ):
        self.plane = plane
        self.policy = policy or ElasticityPolicy()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        self.groups: dict[str, ElasticGroup] = {}
        self._m: dict[str, Counter] = {
            name: self.metrics.counter(f"elasticity.{name}")
            for name in self._COUNTERS
        }
        self._m_lost = self.metrics.counter("elasticity.tuples_lost")
        self._m_decisions = self.metrics.labelled("elasticity.decisions", "action", "box")

    @classmethod
    def from_spec(
        cls,
        plane: EnginePlane | SystemPlane,
        spec: ElasticitySpec,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> "ElasticityController":
        controller = cls(plane, spec.policy, metrics=metrics, tracer=tracer)
        for box_id, fields in spec.boxes.items():
            controller.watch(box_id, fields)
        return controller

    # -- registration ------------------------------------------------------

    def watch(self, box_id: str, fields: Iterable[str] | None = None) -> ElasticGroup:
        if box_id in self.groups:
            raise ElasticityError(f"already watching {box_id!r}")
        network = self.plane.network
        if box_id not in network.boxes:
            raise ElasticityError(f"unknown box {box_id!r}")
        resolved, stateful = self.plane.check_eligible(box_id, fields)
        box = network.boxes[box_id]
        if list(box.input_arcs) != [0]:
            raise ElasticityError(f"box {box_id!r} needs exactly one connected input")
        group = ElasticGroup(
            box_id=box_id,
            fields=resolved,
            stateful=stateful,
            router_id=f"{box_id}__part",
            union_id=f"{box_id}__gather",
        )
        self.groups[box_id] = group
        return group

    # -- probing -----------------------------------------------------------

    def probe(self, now: float | None = None) -> list[tuple[str, str]]:
        """One control-loop tick.  Returns the (box, action) decisions."""
        when = self.plane.now() if now is None else now
        actions: list[tuple[str, str]] = []
        for group in self.groups.values():
            action = self._probe_group(group, when)
            if action is not None:
                actions.append((group.box_id, action))
        return actions

    def _probe_group(self, group: ElasticGroup, now: float) -> str | None:
        policy = self.policy
        plane = self.plane
        if group.pending is not None:
            return None
        failed = plane.failed_replicas(group)
        if failed:
            # Repair ignores the cooldown: a dead replica blackholes its
            # key range for as long as it stays in the ring.
            plane.repair(group, failed[-1], self)
            return self._record(group, "repair", now)
        if now - group.last_action < policy.cooldown:
            return None
        load = plane.load_factor()
        if not group.split:
            # Train pushing drains the watched box between scheduling
            # decisions, so its *instantaneous* queue is usually empty
            # even under overload — the load factor (queued work across
            # the plane, anywhere upstream included) is the honest
            # pressure signal.
            if load >= policy.high_water:
                plane.split(group, self)
                return self._record(group, "split", now)
            return None
        k = len(group.replicas)
        skewed = self._skewed(group)
        self._snapshot_routing(group)
        if load >= policy.high_water and group.ring.size < policy.max_replicas:
            plane.scale_out(group, self)
            return self._record(group, "resplit" if skewed else "split", now)
        if load <= policy.low_water:
            if k > 1:
                plane.scale_in(group, self)
            else:
                plane.merge(group, self)
            return self._record(group, "merge", now)
        return None

    def _skewed(self, group: ElasticGroup) -> bool:
        """Key skew since the last probe, from the routing distribution.

        Instantaneous replica queues are useless here — train pushing
        drains them between scheduling decisions — so skew is measured
        on what the ring actually controls: the per-slot routed-tuple
        deltas over the probe interval.  Skewed when the hottest slot
        exceeds ``skew_factor`` times the mean share (note the mean is
        ``total/k``, so factors must stay below ``k`` to be reachable).
        """
        ring = group.ring
        if ring is None or ring.size < 2:
            return False
        router = self.plane.network.boxes[group.router_id].operator
        previous = group.routed_snapshot
        deltas = [
            router.routed.get(ring.slot_name(i), 0)
            - previous.get(ring.slot_name(i), 0)
            for i in range(ring.size)
        ]
        total = sum(deltas)
        if total <= 0:
            return False
        return max(deltas) > self.policy.skew_factor * (total / len(deltas))

    def _snapshot_routing(self, group: ElasticGroup) -> None:
        router_box = self.plane.network.boxes.get(group.router_id)
        if router_box is not None:
            group.routed_snapshot = dict(router_box.operator.routed)

    # -- accounting --------------------------------------------------------

    def _record(self, group: ElasticGroup, action: str, now: float) -> str:
        counter = {
            "split": "splits",
            "resplit": "resplits",
            "merge": "merges",
            "repair": "repairs",
            "rollback": "rollbacks",
        }[action]
        self._m[counter].inc()
        self._m_decisions[action, group.box_id].inc()
        group.last_action = now
        if self.tracer is not None and self.tracer.active:
            self.tracer.start_trace(f"elasticity:{action}:{group.box_id}", at=now)
        return action

    def note_rollback(self, group: ElasticGroup) -> None:
        """Deferred-outcome hook: a prepared replica was unwound."""
        self._record(group, "rollback", self.plane.now())

    def note_lost(self, group: ElasticGroup, count: int) -> None:
        """Deferred-outcome hook: declared tuple loss from a dead replica."""
        if count > 0:
            self._m_lost.inc(count)

    # -- introspection -----------------------------------------------------

    def describe(self) -> dict[str, dict[str, Any]]:
        """Snapshot of per-group controller state (for reports/tests)."""
        out: dict[str, dict[str, Any]] = {}
        for box_id, group in self.groups.items():
            out[box_id] = {
                "split": group.split,
                "replicas": list(group.replicas),
                "nodes": list(group.nodes),
                "pending": None if group.pending is None else group.pending["kind"],
                "fields": group.fields,
                "stateful": group.stateful,
            }
        return out
