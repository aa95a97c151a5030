"""The discrete-event simulator that drives every experiment.

A :class:`Simulator` owns the clock (simulated seconds from ``0.0``, moved
forward by the event loop alone) and the one event heap.  Components
schedule callbacks either after a relative delay (:meth:`Simulator.call_later`)
or at an absolute time (:meth:`Simulator.call_at`), and the experiment
harness runs the loop with :meth:`Simulator.run`.

The heap is ordered by ``(time, seq)``, where ``seq`` is a strictly
increasing insertion counter.  Ties on time therefore resolve in FIFO order,
which keeps the simulation deterministic regardless of dict/set iteration
order in higher layers.  An entry has one of two shapes:

* ``(time, seq, _Event)`` for a cancellable callback (:meth:`call_later`,
  :meth:`call_at`, and so every :class:`Timer`);
* ``(time, seq, callable, args)`` for a fire-and-forget one
  (:meth:`defer`, and the pushes ``SimCpu`` and ``Network.deliver`` inline):
  no object is allocated, and ``args`` is star-applied when it fires.

``seq`` is unique, so tuple comparison never reaches the third element and
the two shapes share one heap; ordering is resolved by C-level tuple
comparison instead of a Python ``__lt__`` per sift step.

Cancellation is O(1): a cancelled event stays in the heap and is skipped
when it reaches the top.  The simulator counts those entries and
**compacts** the heap in place once they are more than half of it (and it
holds at least 64 entries), so timer-heavy runs (every request arms and
disarms a view-change timer) do not grow the heap.

Timers (used heavily by the consensus protocols for view-change timeouts)
are thin wrappers over events that support cancellation and restart.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

#: Compaction floor: tiny heaps are never worth rebuilding.
_COMPACT_MIN_HEAP = 64
#: Compaction trigger: cancelled fraction of the heap above which it is rebuilt.
_COMPACT_FRACTION = 0.5


class _Event:
    """A cancellable callback in the heap.

    ``done`` is set once the event fired or was cancelled: either way it
    never fires (again), and a later cancel is a no-op.
    """

    __slots__ = ("action", "done")

    def __init__(self, action: Callable[[], None]) -> None:
        self.action = action
        self.done = False


class Timer:
    """A cancellable, restartable timer bound to a simulator.

    Protocol replicas use timers for request timeouts: start it when a
    request enters the pipeline, stop it when the commit arrives, and let
    its expiry trigger a view change.
    """

    def __init__(
        self, simulator: "Simulator", callback: Callable[[], None], label: str = ""
    ) -> None:
        self._simulator = simulator
        self._callback = callback
        self._label = label
        self._event: Optional[_Event] = None

    @property
    def label(self) -> str:
        return self._label

    @property
    def active(self) -> bool:
        """Whether the timer is currently armed."""
        return self._event is not None

    def start(self, delay: float) -> None:
        """Arm (or re-arm) the timer to fire ``delay`` seconds from now."""
        self.stop()
        self._event = self._simulator.call_later(delay, self._fire)

    def restart(self, delay: float) -> None:
        """Alias for :meth:`start`; reads better at call sites that re-arm."""
        self.start(delay)

    def stop(self) -> None:
        """Disarm the timer if it is active.

        Safe to call repeatedly: :meth:`Simulator.cancel` is idempotent, so
        double stops never double-count.
        """
        if self._event is not None:
            self._simulator.cancel(self._event)
        self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()


class Simulator:
    """Deterministic discrete-event simulator.

    Events scheduled for the same instant fire in the order they were
    scheduled.  The simulator makes no use of wall-clock time or global
    randomness, so a run is a pure function of its inputs.
    """

    def __init__(self) -> None:
        # The clock: a plain float the hot paths read as ``simulator._now``.
        self._now = 0.0
        # The heap and its sequence counter, which the hot paths push onto
        # directly; see the module docstring for the two entry shapes.
        self._heap: List[tuple] = []
        self._seq = 0
        self._cancelled = 0  # cancelled events still occupying heap slots
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far (for diagnostics)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of live (not-yet-fired, not-cancelled) events."""
        return len(self._heap) - self._cancelled

    def call_later(self, delay: float, action: Callable[[], None]) -> _Event:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule an event in the past: delay={delay}")
        return self._push(self._now + delay, action)

    def defer(
        self, delay: float, action: Callable[..., None], args: tuple = ()
    ) -> None:
        """Schedule a fire-and-forget ``action`` ``delay`` seconds from now.

        Like :meth:`call_later` but returns nothing and allocates no
        event: ``args`` rides along in the heap entry and is star-applied at
        fire time, so callers avoid a ``functools.partial`` allocation per
        scheduled callback.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule an event in the past: delay={delay}")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (self._now + delay, seq, action, args))

    def call_at(self, timestamp: float, action: Callable[[], None]) -> _Event:
        """Schedule ``action`` to run at absolute simulated time ``timestamp``."""
        if timestamp < self._now:
            raise ValueError(
                f"cannot schedule an event in the past: now={self._now}, at={timestamp}"
            )
        # float() so the run loop's direct clock write keeps time a float.
        return self._push(float(timestamp), action)

    def _push(self, time: float, action: Callable[[], None]) -> _Event:
        event = _Event(action)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def cancel(self, event: _Event) -> None:
        """Cancel a previously scheduled event.

        Idempotent, and a no-op for an event that already fired, so
        repeated ``Timer.stop`` calls (or a stop racing a fire) never skew
        the count of cancelled entries.  Compacts the heap *in place*
        (slice assignment, not rebinding) once they are more than half of
        it: the run loop holds a direct reference to the heap list.
        """
        if event.done:
            return
        event.done = True
        self._cancelled += 1
        heap = self._heap
        if len(heap) >= _COMPACT_MIN_HEAP and self._cancelled > len(heap) * _COMPACT_FRACTION:
            heap[:] = [
                entry for entry in heap if entry[2].__class__ is not _Event or not entry[2].done
            ]
            heapq.heapify(heap)
            self._cancelled = 0

    def timer(self, callback: Callable[[], None], label: str = "") -> Timer:
        """Create an unarmed :class:`Timer` bound to this simulator."""
        return Timer(self, callback, label=label)

    def run(self, until: Optional[float] = None) -> float:
        """Run the event loop.

        Args:
            until: stop once the clock would pass this simulated time.  Events
                scheduled exactly at ``until`` are executed, and the clock
                ends at ``until``.  A time in the past is refused before any
                event fires: the simulator never rewinds.

        Returns:
            The simulated time at which the loop stopped.
        """
        if until is not None and until < self._now:
            raise ValueError(f"cannot run until a past time: now={self._now}, until={until}")
        # Local bindings shave attribute lookups off the per-event path —
        # this loop is the single hottest code in the repository.  The
        # peek-and-pop and the clock advance are inlined here (heap pop order
        # guarantees monotone times, so the advance needs no check; one heap
        # operation per event, where a separate peek then pop would sift
        # twice); compaction mutates the heap list in place, so the local
        # binding stays valid across compactions.
        heap = self._heap
        heappop = heapq.heappop
        while True:
            while heap:
                entry = heap[0]
                time = entry[0]
                payload = entry[2]
                if payload.__class__ is _Event:
                    if payload.done:
                        heappop(heap)
                        self._cancelled -= 1
                        continue
                    if until is not None and time > until:
                        payload = None
                        break
                    heappop(heap)
                    payload.done = True
                    payload = payload.action
                    args = ()
                    break
                if until is not None and time > until:
                    payload = None
                    break
                heappop(heap)
                args = entry[3]
                break
            else:
                payload = None
            if payload is None:
                break
            self._now = time
            if args:
                payload(*args)
            else:
                payload()
            self._events_processed += 1
        if until is not None:
            # Whether live events remain past the horizon or none are left.
            self._now = float(until)
        return self._now
