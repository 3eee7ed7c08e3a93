"""Tests for the discrete-event simulator."""

import pytest

from repro.sim import Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, order.append, "late")
        sim.schedule(1.0, order.append, "early")
        sim.run()
        assert order == ["early", "late"]
        assert sim.now == 2.0

    def test_ties_broken_by_insertion_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "first")
        sim.schedule(1.0, order.append, "second")
        sim.run()
        assert order == ["first", "second"]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.schedule_at(5.0, fired.append, "x")
        sim.run()
        assert sim.now == 5.0 and fired == ["x"]

    def test_events_scheduled_during_run_are_processed(self):
        sim = Simulator()
        order = []

        def chain(n):
            order.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert order == [0, 1, 2, 3]
        assert sim.now == 3.0


class TestCancellation:
    def test_cancelled_event_skipped(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_pending_ignores_cancelled(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending == 2
        event.cancel()
        assert sim.pending == 1

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.pending == 1
        sim.run()
        assert sim.pending == 0

    def test_cancel_after_fire_is_a_no_op(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        event.cancel()  # already fired: must not corrupt the count
        assert sim.pending == 1
        sim.run()
        assert sim.pending == 0

    def test_pending_counts_stay_exact_under_churn(self):
        sim = Simulator()
        events = [sim.schedule(float(i % 7) + 0.1, lambda: None) for i in range(100)]
        for event in events[::3]:
            event.cancel()
        for event in events[::3]:
            event.cancel()  # double cancels must not double-count
        live = sum(1 for e in events if not e.cancelled)
        assert sim.pending == live
        sim.run()
        assert sim.pending == 0
        assert sim.events_processed == live

    def test_pending_is_constant_time(self):
        # The counter must not degrade into an O(n) queue scan: reading
        # ``pending`` with 50k events queued costs the same as with 10.
        import timeit

        small, big = Simulator(), Simulator()
        for _ in range(10):
            small.schedule(1.0, lambda: None)
        for _ in range(50_000):
            big.schedule(1.0, lambda: None)
        t_small = min(timeit.repeat(lambda: small.pending, number=2000, repeat=3))
        t_big = min(timeit.repeat(lambda: big.pending, number=2000, repeat=3))
        assert t_big < t_small * 20  # would be ~5000x if it scanned


class TestTrace:
    def test_trace_records_fired_events_in_order(self):
        sim = Simulator(record_trace=True)

        def alpha():
            pass

        def beta():
            pass

        sim.schedule(2.0, beta)
        sim.schedule(1.0, alpha)
        sim.run()
        assert [label for _t, _s, label in sim.trace] == ["alpha", "beta"]
        assert sim.trace_text().splitlines()[0].endswith("alpha")

    def test_trace_off_by_default(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.trace == []

    def test_enable_trace_mid_run(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.enable_trace()
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert len(sim.trace) == 1

    def test_cancelled_events_never_appear_in_trace(self):
        sim = Simulator(record_trace=True)
        sim.schedule(1.0, lambda: None).cancel()

        def kept():
            pass

        sim.schedule(2.0, kept)
        sim.run()
        assert [label for _t, _s, label in sim.trace] == ["kept"]


class TestRunBounds:
    def test_run_until_stops_clock_at_bound(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(10.0, fired.append, "b")
        sim.run(until=5.0)
        assert fired == ["a"]
        assert sim.now == 5.0
        sim.run()
        assert fired == ["a", "b"]

    def test_run_until_advances_clock_when_queue_empty(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_run_until_in_the_past_keeps_clock_with_event_pending(self):
        # Regression: with an event pending after ``until`` the loop
        # used to set ``now = until`` even when that moved it backwards.
        sim = Simulator()
        fired = []
        sim.schedule(10.0, fired.append, "x")
        sim.run(until=6.0)
        sim.run(until=3.0)
        assert sim.now == 6.0 and fired == []
        sim.run()
        assert sim.now == 10.0 and fired == ["x"]

    def test_run_until_in_the_past_keeps_clock_with_queue_empty(self):
        sim = Simulator()
        sim.run(until=6.0)
        sim.run(until=3.0)
        assert sim.now == 6.0

    def test_run_matches_peek_then_step(self):
        """The one-loop ``run`` fires what ``peek_time`` + ``step`` would:
        same order, clock, trace and counts, cancelled events skipped."""

        def drive(use_run):
            sim = Simulator(record_trace=True)
            order = []

            def tick(n):
                order.append((sim.now, n))
                if n % 3 == 0:
                    sim.schedule(0.0, tick, n + 100)
                if n < 20:
                    sim.schedule(0.5 * (n % 4), tick, n + 1)

            for i in range(5):
                sim.schedule(float(i % 2), tick, 10 * i)
            sim.schedule(0.7, tick, -1).cancel()
            if use_run:
                sim.run(until=4.0)
                sim.run(max_events=7)
                sim.run()
            else:
                while sim.peek_time() is not None and sim.peek_time() <= 4.0:
                    sim.step()
                sim.now = max(sim.now, 4.0)
                for _ in range(7):
                    sim.step()
                while sim.step():
                    pass
            return order, sim.now, sim.events_processed, sim.pending, sim.trace_text()

        assert drive(True) == drive(False)

    def test_max_events_bound(self):
        sim = Simulator()
        for _ in range(10):
            sim.schedule(1.0, lambda: None)
        sim.run(max_events=4)
        assert sim.events_processed == 4

    def test_peek_time(self):
        sim = Simulator()
        assert sim.peek_time() is None
        sim.schedule(3.0, lambda: None)
        assert sim.peek_time() == 3.0

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False
