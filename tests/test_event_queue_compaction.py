"""Live-count accounting and auto-compaction of the event queue.

Timer-heavy runs arm and disarm a view-change timer on nearly every commit;
cancelled events must neither skew ``len(queue)`` (double-counted cancels)
nor accumulate in the heap forever (the old code grew until someone called
``discard_cancelled()`` by hand).
"""

from __future__ import annotations

from repro.sim.events import EventQueue, _COMPACT_MIN_HEAP
from repro.sim.simulator import Simulator


class TestCancelAccounting:
    def test_cancel_is_idempotent(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert queue.cancel(event) is True
        assert queue.cancel(event) is False  # second cancel is a no-op
        assert len(queue) == 1

    def test_cancelling_fired_event_is_noop(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        fired = queue.pop()
        assert fired is event
        assert queue.cancel(event) is False
        assert len(queue) == 1

    def test_simulator_cancel_twice_keeps_live_count(self):
        simulator = Simulator()
        event = simulator.call_later(1.0, lambda: None)
        simulator.call_later(2.0, lambda: None)
        simulator.cancel(event)
        simulator.cancel(event)
        assert simulator.pending_events == 1

    def test_timer_repeated_start_stop_keeps_live_count(self):
        """The audit target: Timer.stop after fire / double stop never skews."""
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

        # The queue still works normally afterwards.
        timer.start(1.0)
        assert simulator.pending_events == 1
        simulator.run()
        assert len(fired) == 2

    def test_bare_event_cancel_routes_through_queue_accounting(self):
        """Event.cancel() alone must keep counts exact and still feed
        auto-compaction."""
        simulator = Simulator()
        events = [simulator.call_later(1.0, lambda: None) for _ in range(10_000)]
        for event in events[:-1]:
            event.cancel()
            event.cancel()  # double-cancel via the public API
        assert simulator.pending_events == 1
        queue = simulator._queue
        assert queue.cancelled_in_heap >= 0
        assert queue.heap_size <= 2 * _COMPACT_MIN_HEAP  # compaction fired

    def test_fast_path_events_count_and_fire(self):
        simulator = Simulator()
        fired = []
        simulator.defer(0.5, lambda: fired.append("fast"))
        simulator.call_later(1.0, lambda: fired.append("slow"))
        assert simulator.pending_events == 2
        simulator.run()
        assert fired == ["fast", "slow"]
        assert simulator.pending_events == 0


class TestAutoCompaction:
    def test_compacts_when_cancelled_majority(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(2 * _COMPACT_MIN_HEAP)]
        # Cancel just over half; the queue must shrink its heap on its own.
        for event in events[: _COMPACT_MIN_HEAP + 1]:
            queue.cancel(event)
        assert queue.cancelled_in_heap == 0  # compaction already ran
        assert queue.heap_size == len(queue) == _COMPACT_MIN_HEAP - 1

    def test_small_heaps_are_left_alone(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(8)]
        for event in events[:7]:
            queue.cancel(event)
        # Below the floor: cancelled entries stay until popped over.
        assert queue.cancelled_in_heap == 7
        assert queue.heap_size == 8
        assert len(queue) == 1

    def test_pop_order_survives_compaction(self):
        queue = EventQueue()
        fired = []
        keep = []
        for i in range(3 * _COMPACT_MIN_HEAP):
            event = queue.push(float(i), lambda i=i: fired.append(i))
            if i % 3 == 0:
                keep.append(i)
            else:
                queue.cancel(event)
        while queue:
            queue.pop().action()
        assert fired == keep

    def test_timer_churn_does_not_grow_heap_unboundedly(self):
        simulator = Simulator()
        timer = simulator.timer(lambda: None, label="churn")
        for _ in range(10_000):
            timer.start(1.0)
        # Without auto-compaction the heap would hold ~10k cancelled shells.
        queue = simulator._queue
        assert queue.heap_size <= 2 * _COMPACT_MIN_HEAP
        assert simulator.pending_events == 1
