"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import EventQueue, Simulator


class TestClock:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_run_until_advances_clock(self):
        sim = Simulator()
        sim.run(until=3.5)
        assert sim.now == 3.5

    def test_run_until_same_time_allowed(self):
        sim = Simulator()
        sim.run(until=2.0)
        sim.run(until=2.0)
        assert sim.now == 2.0

    def test_run_until_in_the_past_rejected_with_empty_queue(self):
        sim = Simulator()
        sim.run(until=1.0)
        with pytest.raises(ValueError, match=r"now=1\.0, until=0\.5"):
            sim.run(until=0.5)
        assert sim.now == 1.0

    def test_run_until_in_the_past_rejected_before_any_event_fires(self):
        sim = Simulator()
        sim.run(until=1.0)
        fired = []
        sim.call_later(0.25, lambda: fired.append(sim.now))
        with pytest.raises(ValueError, match=r"now=1\.0, until=0\.5"):
            sim.run(until=0.5)
        assert fired == []
        assert sim.now == 1.0
        assert sim.pending_events == 1


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        fired = []
        queue.push(2.0, lambda: fired.append("b"))
        queue.push(1.0, lambda: fired.append("a"))
        queue.push(3.0, lambda: fired.append("c"))
        while queue:
            queue.pop().action()
        assert fired == ["a", "b", "c"]

    def test_fifo_within_same_time(self):
        queue = EventQueue()
        fired = []
        for name in "abcde":
            queue.push(1.0, lambda n=name: fired.append(n))
        while queue:
            queue.pop().action()
        assert fired == list("abcde")

    def test_cancelled_events_skipped(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        event.cancel()
        popped = queue.pop()
        assert popped.time == 2.0

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(5.0, lambda: None)
        event.cancel()
        assert queue.peek_time() == 5.0

    def test_len_tracks_live_events(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        event = queue.push(2.0, lambda: None)
        assert len(queue) == 2
        event.cancel()
        assert len(queue) == 1

    def test_empty_queue_pops_none(self):
        assert EventQueue().pop() is None
        assert EventQueue().peek_time() is None


class TestSimulator:
    def test_call_later_advances_clock(self):
        sim = Simulator()
        fired_at = []
        sim.call_later(1.5, lambda: fired_at.append(sim.now))
        sim.run()
        assert fired_at == [1.5]
        assert sim.now == 1.5

    def test_call_at_absolute_time(self):
        sim = Simulator()
        fired_at = []
        sim.call_at(4.0, lambda: fired_at.append(sim.now))
        sim.run()
        assert fired_at == [4.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.call_later(-1.0, lambda: None)

    def test_call_at_in_the_past_rejected(self):
        sim = Simulator()
        sim.call_later(2.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.call_at(1.0, lambda: None)

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.call_later(1.0, lambda: fired.append(1))
        sim.call_later(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 10]

    def test_run_until_executes_events_exactly_at_until(self):
        sim = Simulator()
        fired = []
        sim.call_later(5.0, lambda: fired.append(5))
        sim.run(until=5.0)
        assert fired == [5]

    def test_events_can_schedule_more_events(self):
        sim = Simulator()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 5:
                sim.call_later(1.0, lambda: chain(depth + 1))

        sim.call_later(1.0, lambda: chain(1))
        sim.run()
        assert fired == [1, 2, 3, 4, 5]
        assert sim.now == 5.0

    def test_cancel_scheduled_event(self):
        sim = Simulator()
        fired = []
        event = sim.call_later(1.0, lambda: fired.append("x"))
        sim.cancel(event)
        sim.run()
        assert fired == []

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.call_later(float(i + 1), lambda: None)
        sim.run()
        assert sim.events_processed == 4

    def test_deterministic_tie_break(self):
        sim = Simulator()
        fired = []
        for name in "abc":
            sim.call_later(1.0, lambda n=name: fired.append(n))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_run_until_with_empty_queue_advances_clock(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0


class TestTimer:
    def test_timer_fires_after_delay(self):
        sim = Simulator()
        fired = []
        timer = sim.timer(lambda: fired.append(sim.now))
        timer.start(2.0)
        sim.run()
        assert fired == [2.0]
        assert not timer.active

    def test_timer_stop_prevents_firing(self):
        sim = Simulator()
        fired = []
        timer = sim.timer(lambda: fired.append("x"))
        timer.start(2.0)
        timer.stop()
        sim.run()
        assert fired == []

    def test_timer_restart_resets_deadline(self):
        sim = Simulator()
        fired = []
        timer = sim.timer(lambda: fired.append(sim.now))
        timer.start(2.0)
        sim.call_later(1.0, lambda: timer.restart(5.0))
        sim.run()
        assert fired == [6.0]

    def test_timer_active_flag(self):
        sim = Simulator()
        timer = sim.timer(lambda: None)
        assert not timer.active
        timer.start(1.0)
        assert timer.active
        timer.stop()
        assert not timer.active

    def test_stopping_inactive_timer_is_noop(self):
        sim = Simulator()
        timer = sim.timer(lambda: None)
        timer.stop()
        assert not timer.active
