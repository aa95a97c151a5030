"""The discrete-event simulator that drives every experiment.

A :class:`Simulator` owns the clock (simulated seconds from ``0.0``, moved
forward by the event loop alone) and the event queue.  Components
schedule callbacks either after a relative delay (:meth:`Simulator.call_later`)
or at an absolute time (:meth:`Simulator.call_at`), and the experiment
harness runs the loop with :meth:`Simulator.run`.

Timers (used heavily by the consensus protocols for view-change timeouts)
are thin wrappers over events that support cancellation and restart.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from repro.sim.events import Event, EventQueue


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
        self._event: Optional[Event] = None

    @property
    def label(self) -> str:
        return self._label

    @property
    def active(self) -> bool:
        """Whether the timer is currently armed."""
        return self._event is not None and not self._event.cancelled

    def start(self, delay: float) -> None:
        """Arm (or re-arm) the timer to fire ``delay`` seconds from now."""
        self.stop()
        self._event = self._simulator.call_later(delay, self._fire, label=self._label)

    def restart(self, delay: float) -> None:
        """Alias for :meth:`start`; reads better at call sites that re-arm."""
        self.start(delay)

    def stop(self) -> None:
        """Disarm the timer if it is active.

        Safe to call repeatedly: cancellation accounting is guarded in the
        event queue itself, so double stops never double-count.
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
        self._queue = EventQueue()
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
        return len(self._queue)

    def call_later(self, delay: float, action: Callable[[], None], label: str = "") -> Event:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule an event in the past: delay={delay}")
        return self._queue.push(self._now + delay, action, label=label)

    def defer(
        self, delay: float, action: Callable[..., None], args: tuple = ()
    ) -> None:
        """Schedule a fire-and-forget ``action`` ``delay`` seconds from now.

        Like :meth:`call_later` but returns nothing and allocates no
        :class:`Event`: the hot paths (CPU completions, network arrivals)
        schedule hundreds of thousands of callbacks that are never
        cancelled or inspected.  ``args`` rides along in the heap entry and
        is star-applied at fire time, so callers avoid a
        ``functools.partial`` allocation per scheduled callback.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule an event in the past: delay={delay}")
        # The heap push is inlined: this is called once per CPU work item
        # and once per network delivery, so an extra frame matters.
        queue = self._queue
        seq = queue._counter
        queue._counter = seq + 1
        queue._live += 1
        heapq.heappush(queue._heap, (self._now + delay, seq, action, args))

    def call_at(self, timestamp: float, action: Callable[[], None], label: str = "") -> Event:
        """Schedule ``action`` to run at absolute simulated time ``timestamp``."""
        if timestamp < self._now:
            raise ValueError(
                f"cannot schedule an event in the past: now={self._now}, at={timestamp}"
            )
        # float() so the run loop's direct clock write keeps time a float.
        return self._queue.push(float(timestamp), action, label=label)

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event.

        Idempotent, and a no-op for events that already fired: the queue
        tracks live/cancelled counts exactly, so repeated ``Timer.stop``
        calls (or a stop racing a fire) can never skew the accounting.
        """
        self._queue.cancel(event)

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
        # binding stays valid across auto-compactions.
        queue = self._queue
        heap = queue._heap
        heappop = heapq.heappop
        while True:
            while heap:
                entry = heap[0]
                time = entry[0]
                payload = entry[2]
                if payload.__class__ is Event:
                    if payload.cancelled:
                        heappop(heap)
                        queue._cancelled_in_heap -= 1
                        continue
                    if until is not None and time > until:
                        payload = None
                        break
                    heappop(heap)
                    payload.fired = True
                    queue._live -= 1
                    payload = payload.action
                    args = ()
                    break
                if until is not None and time > until:
                    payload = None
                    break
                heappop(heap)
                queue._live -= 1
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
