"""Storage manager: queue buffering with spill to persistent store (Section 2.3).

"Aurora also has a Storage Manager that is used to buffer queues when
main memory runs out.  This is particularly important for queues at
connection points since they can grow quite long."

We model the buffer manager's *performance effect* rather than byte
movement: every arc's queue is registered; when the total number of
buffered tuples exceeds the memory budget, the excess tail of the
longest queues is accounted as spilled, and consuming a spilled tuple
charges a disk-read cost to the engine clock.  Connection-point queues
are preferred spill victims because they are the long ones and their
consumers (ad-hoc queries) are latency-insensitive.
"""

from __future__ import annotations

from repro.core.query import Arc, QueryNetwork
from repro.obs.registry import NULL_COUNTER, NULL_GAUGE, MetricsRegistry


class StorageManager:
    """Tracks buffered tuples across all arcs and accounts spill I/O.

    Args:
        memory_budget: maximum tuples held in memory across all queues.
        write_cost: virtual seconds charged per spilled tuple write.
        read_cost: virtual seconds charged per spilled tuple read-back.
    """

    def __init__(
        self,
        memory_budget: int = 10_000,
        write_cost: float = 0.0001,
        read_cost: float = 0.0001,
    ):
        if memory_budget < 1:
            raise ValueError("memory_budget must be >= 1")
        self.memory_budget = memory_budget
        self.write_cost = write_cost
        self.read_cost = read_cost
        self._spilled: dict[str, int] = {}
        self.tuples_spilled = 0
        self.tuples_unspilled = 0
        self.io_time = 0.0
        # Registry handles; no-ops until bind_metrics() (the engine binds
        # its registry at construction).  The int attributes above stay
        # authoritative for existing callers.
        self._m_spilled = NULL_COUNTER
        self._m_unspilled = NULL_COUNTER
        self._m_io_time = NULL_GAUGE

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """Mirror spill accounting into an observability registry."""
        self._m_spilled = registry.counter("storage.tuples_spilled")
        self._m_unspilled = registry.counter("storage.tuples_unspilled")
        self._m_io_time = registry.gauge("storage.io_time")

    def settled(self, queued: int) -> bool:
        """True when :meth:`rebalance` with ``queued`` tuples queued would
        do nothing: nothing is spilled and nothing needs to be."""
        return not self._spilled and queued <= self.memory_budget

    def spilled_on(self, arc: Arc) -> int:
        """Tuples of ``arc``'s queue currently accounted as on disk."""
        return self._spilled.get(arc.id, 0)

    def total_in_memory(self, network: QueryNetwork) -> int:
        queued = network.total_queued()
        return queued - sum(self._spilled.values())

    def rebalance(self, network: QueryNetwork, queued: int | None = None) -> float:
        """Spill or unspill to respect the memory budget.

        ``queued`` is the caller's count of the tuples queued across the
        network (the engine passes its running total, so an uncongested
        step never walks the arcs); omitted, it is counted from scratch.
        Returns the I/O time charged by this call (the engine adds it
        to its virtual clock).
        """
        if queued is None:
            queued = network.total_queued()
        if self.settled(queued):
            # Skip the victim walk and the redundant gauge write (this is
            # every step of an uncongested run).
            return 0.0
        overflow = queued - sum(self._spilled.values()) - self.memory_budget
        charged = 0.0
        if overflow > 0:
            charged += self._spill(network, overflow)
        else:
            charged += self._unspill(network, -overflow)
        self.io_time += charged
        self._m_io_time.set(self.io_time)
        return charged

    def _victim_order(self, network: QueryNetwork) -> list[Arc]:
        # Connection-point arcs first (the paper's long queues), then by
        # in-memory queue length descending.
        def sort_key(arc: Arc) -> tuple[int, int]:
            is_cp = 0 if arc.connection_point is not None else 1
            in_memory = arc.queued_tuples() - self.spilled_on(arc)
            return (is_cp, -in_memory)

        return sorted(network.arcs.values(), key=sort_key)

    def _spill(self, network: QueryNetwork, amount: int) -> float:
        charged = 0.0
        for arc in self._victim_order(network):
            if amount <= 0:
                break
            in_memory = arc.queued_tuples() - self.spilled_on(arc)
            take = min(amount, in_memory)
            if take <= 0:
                continue
            self._spilled[arc.id] = self.spilled_on(arc) + take
            self.tuples_spilled += take
            self._m_spilled.inc(take)
            charged += take * self.write_cost
            amount -= take
        return charged

    def _unspill(self, network: QueryNetwork, headroom: int) -> float:
        charged = 0.0
        if headroom <= 0:
            return charged
        for arc_id in list(self._spilled):
            if headroom <= 0:
                break
            bring_back = min(headroom, self._spilled[arc_id])
            self._spilled[arc_id] -= bring_back
            if self._spilled[arc_id] == 0:
                del self._spilled[arc_id]
            self.tuples_unspilled += bring_back
            self._m_unspilled.inc(bring_back)
            charged += bring_back * self.read_cost
            headroom -= bring_back
        return charged

    def charge_consume_batch(self, arc: Arc, count: int) -> tuple[float, int]:
        """Account for a box consuming ``count`` queued tuples at once.

        Exactly equivalent to ``count`` successive
        :meth:`charge_consume`/``popleft`` pairs, performed before any
        tuple is actually popped.  Returns ``(total_cost, first_read)``:
        the aggregate I/O time, and the index of the first consumed
        tuple that incurred a spilled read (``count`` if none did) — the
        engine uses the index to interleave read charges into its
        per-tuple clock chain exactly as the scalar path would.
        """
        spilled = self.spilled_on(arc)
        if spilled == 0 or count <= 0:
            return 0.0, count
        # Spilled tuples are the queue's tail: pops start hitting disk
        # once the in-memory prefix (len - spilled) is exhausted, and
        # every pop after that is a read (both lengths shrink together).
        first_read = max(0, arc.queued_tuples() - spilled)
        if first_read >= count:
            return 0.0, count
        reads = count - first_read
        remaining = spilled - reads
        if remaining:
            self._spilled[arc.id] = remaining
        else:
            self._spilled.pop(arc.id, None)
        self.tuples_unspilled += reads
        self._m_unspilled.inc(reads)
        # Accumulated read by read, as the per-tuple charges do: the
        # gauge is part of the bit-identical obs snapshot.
        for _ in range(reads):
            self.io_time += self.read_cost
        self._m_io_time.set(self.io_time)
        return reads * self.read_cost, first_read

    def charge_consume(self, arc: Arc) -> float:
        """Account for a box consuming one tuple from ``arc``.

        If the arc has spilled tuples and its in-memory portion is
        exhausted, one spilled tuple must be read back; the read cost is
        returned for the engine to charge.
        """
        spilled = self.spilled_on(arc)
        if spilled and arc.queued_tuples() <= spilled:
            self._spilled[arc.id] = spilled - 1
            if self._spilled[arc.id] == 0:
                del self._spilled[arc.id]
            self.tuples_unspilled += 1
            self._m_unspilled.inc()
            self.io_time += self.read_cost
            self._m_io_time.set(self.io_time)
            return self.read_cost
        return 0.0
