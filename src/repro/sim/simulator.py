"""A minimal, deterministic discrete-event simulator.

Events are callbacks scheduled at virtual times.  Ties are broken by
insertion order, which makes every run fully deterministic.  The
simulator is intentionally tiny: the distributed-systems logic lives in
the packages built on top of it (``repro.network``, ``repro.distributed``,
``repro.ha``, ``repro.medusa``).

For fault-injection and replay testing the simulator can record an
*event trace*: one entry per fired event, ``(time, seq, label)``.  Two
runs of the same seeded scenario must produce byte-identical traces —
this is the determinism contract the scenario runner
(:mod:`repro.sim.scenarios`) and the regression tests rely on.

A callback may *owe* a call instead of scheduling it (:meth:`Simulator.owe`):
when a call scheduled now at ``now`` would be the next event to fire,
the simulator runs it as soon as the callback returns, which is the
same step without the event.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`.

    Events can be cancelled before they fire; a cancelled event is
    skipped by the event loop.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "fired", "_sim")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False
        self._sim: "Simulator | None" = None

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent, no-op once fired)."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._pending_count -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, fn={getattr(self.fn, '__name__', self.fn)}, {state})"


class Simulator:
    """Virtual-clock event loop.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, callback, arg1, arg2)
        sim.run()          # run until the event queue drains
        sim.run(until=10)  # ...or until virtual time 10

    Args:
        record_trace: when True, every fired event appends
            ``(time, seq, label)`` to :attr:`trace`, where label is the
            callback's ``__name__``.  Used by determinism tests and the
            fault-injection replay machinery.
    """

    def __init__(self, record_trace: bool = False) -> None:
        self.now: float = 0.0
        # Heap of (time, seq, event): seq is unique, so ordering is
        # decided by C tuple comparison and never reaches the Event.
        self._queue: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self.events_processed = 0
        # Pending (non-cancelled) events, maintained incrementally so
        # ``pending`` is O(1) instead of an O(n) queue scan.
        self._pending_count = 0
        self.trace: list[tuple[float, int, str]] = []
        self._record_trace = record_trace
        # What the running callback owes, in owing order (owe()); None
        # outside a callback.
        self._owed: list[tuple[Callable[..., Any], tuple]] | None = None

    def enable_trace(self) -> None:
        """Start recording the event trace (idempotent)."""
        self._record_trace = True

    def trace_text(self) -> str:
        """The event trace as one canonical string (for byte comparison)."""
        return "\n".join(f"{t:.9f} {seq} {label}" for t, seq, label in self.trace)

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` virtual seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        event = Event(self.now + delay, next(self._counter), fn, args)
        event._sim = self
        heapq.heappush(self._queue, (event.time, event.seq, event))
        self._pending_count += 1
        return event

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        return self.schedule(time - self.now, fn, *args)

    def owe(self, fn: Callable[..., Any], *args: Any) -> bool:
        """Owe ``fn(*args)`` to the running callback if a call scheduled
        now at ``now`` would be the next event to fire; returns whether
        it was owed (if not, schedule it).

        Ties break by insertion order, so such an event fires after
        every event already pending at ``now`` and before every event
        scheduled later: with none pending at ``now``, running it when
        the callback returns (after what it owed before) changes no
        order, clock or float.  Outside a callback nothing is owed.
        """
        owed = self._owed
        if owed is None:
            return False
        next_time = self.peek_time()
        if next_time is not None and next_time <= self.now:
            return False
        owed.append((fn, args))
        return True

    def call(self, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` now as an event callback would run: what it
        owes runs when it returns.  Inside a callback it joins that
        callback.  Outside one, the caller must run the simulator next,
        as the event loop would have."""
        if self._owed is not None:
            fn(*args)
            return
        self._owed = []
        try:
            fn(*args)
            self._pay()
        finally:
            self._owed = None

    def _pay(self) -> None:
        """Run the owed calls in owing order; a call may owe more."""
        owed = self._owed
        index = 0
        while index < len(owed):
            fn, args = owed[index]
            index += 1
            fn(*args)
        owed.clear()

    def peek_time(self) -> float | None:
        """Virtual time of the next pending event, or None if idle."""
        while self._queue and self._queue[0][2].cancelled:
            heapq.heappop(self._queue)
        if not self._queue:
            return None
        return self._queue[0][0]

    def step(self) -> bool:
        """Run the next pending event (and what it owes).  Returns False
        if the queue is empty."""
        fired = self.events_processed
        self.run(max_events=1)
        return self.events_processed > fired

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run events in time order.

        Stops when the queue is empty, when the next event would occur
        after ``until``, or after ``max_events`` events.  When stopping
        at ``until``, the clock is advanced to ``until`` (never moved
        back) so subsequent scheduling is relative to the stop time.
        What each event's callback owes (:meth:`owe`) runs when it
        returns, before the next event and inside ``max_events``' count
        of one.
        """
        outer = self._owed
        self._owed = owed = []
        try:
            self._run(until, max_events, owed)
        finally:
            self._owed = outer

    def _run(self, until: float | None, max_events: int | None, owed: list) -> None:
        queue = self._queue
        pop = heapq.heappop
        budget = -1 if max_events is None else max(max_events, 0)
        while budget:
            if not queue:
                break
            time, seq, event = queue[0]
            if event.cancelled:
                pop(queue)
                continue
            if until is not None and time > until:
                break
            pop(queue)
            event.fired = True
            self._pending_count -= 1
            self.now = time
            if self._record_trace:
                self.trace.append((time, seq, getattr(event.fn, "__name__", repr(event.fn))))
            event.fn(*event.args)
            if owed:
                self._pay()
            self.events_processed += 1
            budget -= 1
        else:
            return  # max_events reached: the clock stays at the last event
        if until is not None and until > self.now:
            self.now = until

    @property
    def pending(self) -> int:
        """Number of pending (non-cancelled) events.  O(1)."""
        return self._pending_count
