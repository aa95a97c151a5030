"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import Simulator
from repro.sim.simulator import _COMPACT_MIN_HEAP


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


class TestEventHeap:
    def test_orders_by_time(self):
        sim = Simulator()
        fired = []
        sim.call_at(2.0, lambda: fired.append("b"))
        sim.call_at(1.0, lambda: fired.append("a"))
        sim.call_at(3.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_fifo_within_same_time_across_both_entry_shapes(self):
        sim = Simulator()
        fired = []
        for name in "abcde":
            sim.call_at(1.0, lambda n=name: fired.append(n))
            sim.defer(1.0, fired.append, (name.upper(),))
        sim.run()
        assert fired == ["a", "A", "b", "B", "c", "C", "d", "D", "e", "E"]

    def test_a_cancelled_head_is_skipped_without_moving_the_clock(self):
        sim = Simulator()
        fired = []
        event = sim.call_at(1.0, lambda: fired.append(sim.now))
        sim.call_at(5.0, lambda: fired.append(sim.now))
        sim.cancel(event)
        assert sim.run(until=3.0) == 3.0
        assert fired == [] and sim.pending_events == 1
        sim.run()
        assert fired == [5.0]

    def test_pending_events_tracks_live_events(self):
        sim = Simulator()
        sim.call_at(1.0, lambda: None)
        event = sim.call_at(2.0, lambda: None)
        assert sim.pending_events == 2
        sim.cancel(event)
        assert sim.pending_events == 1

    def test_an_empty_heap_runs_nothing(self):
        sim = Simulator()
        assert sim.run() == 0.0
        assert sim.events_processed == 0 and sim.pending_events == 0


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


class TestCancelAccounting:
    """Cancelled events must never skew ``pending_events`` (double cancels,
    a cancel after the fire) nor stay in the heap forever."""

    def test_cancel_is_idempotent(self):
        simulator = Simulator()
        event = simulator.call_later(1.0, lambda: None)
        simulator.call_later(2.0, lambda: None)
        simulator.cancel(event)
        simulator.cancel(event)  # second cancel is a no-op
        assert simulator.pending_events == 1
        assert simulator._cancelled == 1

    def test_cancelling_a_fired_event_is_a_noop(self):
        simulator = Simulator()
        event = simulator.call_later(1.0, lambda: None)
        simulator.call_later(2.0, lambda: None)
        simulator.run(until=1.0)
        simulator.cancel(event)
        assert simulator.pending_events == 1
        assert simulator._cancelled == 0

    def test_timer_repeated_start_stop_keeps_live_count(self):
        simulator = Simulator()
        fired = []
        timer = simulator.timer(lambda: fired.append(simulator.now), label="t")
        for _ in range(50):
            timer.start(0.5)
            timer.stop()
            timer.stop()  # double stop
        assert simulator.pending_events == 0

        timer.start(0.25)
        simulator.run()
        assert fired == [0.25]
        timer.stop()  # stop after fire must not decrement live count
        assert simulator.pending_events == 0

        # The heap still works normally afterwards.
        timer.start(1.0)
        assert simulator.pending_events == 1
        simulator.run()
        assert len(fired) == 2

    def test_many_double_cancels_keep_counts_exact_and_compact(self):
        simulator = Simulator()
        events = [simulator.call_later(1.0, lambda: None) for _ in range(10_000)]
        for event in events[:-1]:
            simulator.cancel(event)
            simulator.cancel(event)
        assert simulator.pending_events == 1
        assert simulator._cancelled >= 0
        assert len(simulator._heap) <= 2 * _COMPACT_MIN_HEAP  # compaction fired

    def test_fast_path_events_count_and_fire(self):
        simulator = Simulator()
        fired = []
        simulator.defer(0.5, lambda: fired.append("fast"))
        simulator.call_later(1.0, lambda: fired.append("slow"))
        assert simulator.pending_events == 2
        simulator.run()
        assert fired == ["fast", "slow"]
        assert simulator.pending_events == 0


class TestCompaction:
    def test_compacts_when_cancelled_majority(self):
        simulator = Simulator()
        events = [simulator.call_at(float(i), lambda: None) for i in range(2 * _COMPACT_MIN_HEAP)]
        # Cancel just over half; the simulator must shrink its heap on its own.
        for event in events[: _COMPACT_MIN_HEAP + 1]:
            simulator.cancel(event)
        assert simulator._cancelled == 0  # compaction already ran
        assert len(simulator._heap) == simulator.pending_events == _COMPACT_MIN_HEAP - 1

    def test_small_heaps_are_left_alone(self):
        simulator = Simulator()
        events = [simulator.call_at(float(i), lambda: None) for i in range(8)]
        for event in events[:7]:
            simulator.cancel(event)
        # Below the floor: cancelled entries stay until the run loop skips them.
        assert simulator._cancelled == 7
        assert len(simulator._heap) == 8
        assert simulator.pending_events == 1

    def test_order_survives_compaction(self):
        simulator = Simulator()
        fired = []
        keep = []
        for i in range(4 * _COMPACT_MIN_HEAP):
            event = simulator.call_at(float(i), lambda i=i: fired.append(i))
            if i % 4 == 0:
                simulator.defer(float(i), fired.append, (-i,))
                keep.extend([i, -i])
            else:
                simulator.cancel(event)
        assert len(simulator._heap) < 4 * _COMPACT_MIN_HEAP  # compaction ran
        simulator.run()
        assert fired == keep

    def test_timer_churn_does_not_grow_heap_unboundedly(self):
        simulator = Simulator()
        timer = simulator.timer(lambda: None, label="churn")
        for _ in range(10_000):
            timer.start(1.0)
        # Without compaction the heap would hold ~10k cancelled events.
        assert len(simulator._heap) <= 2 * _COMPACT_MIN_HEAP
        assert simulator.pending_events == 1
