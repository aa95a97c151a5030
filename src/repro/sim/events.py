"""Event objects and the priority queue that orders them.

Events are ordered by ``(time, sequence)`` where ``sequence`` is a strictly
increasing insertion counter.  Ties on time therefore resolve in FIFO order,
which keeps the simulation deterministic regardless of dict/set iteration
order in higher layers.

Two hot-path design points:

* the heap stores ``(time, seq, event)`` tuples, so ordering is resolved by
  C-level tuple comparison instead of a Python ``__lt__`` per sift step —
  the event loop compares millions of entries per simulated second;
* cancelled events stay in the heap (cancellation is O(1)) but the queue
  counts them and **auto-compacts** once they exceed half the heap, so
  timer-heavy runs (every request arms and disarms a view-change timer) no
  longer grow the heap until someone calls :meth:`EventQueue.discard_cancelled`
  by hand.
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import Any, Callable, List, Optional, Tuple

#: Auto-compaction floor: tiny heaps are never worth rebuilding.
_COMPACT_MIN_HEAP = 64
#: Auto-compaction trigger: cancelled fraction of the heap above which a
#: :meth:`EventQueue.discard_cancelled` pass runs automatically.
_COMPACT_FRACTION = 0.5


class Event:
    """A single scheduled callback.

    Attributes:
        time: absolute simulated time at which the event fires.
        seq: insertion sequence number, used as a tiebreaker.
        action: zero-argument callable invoked when the event fires.
        cancelled: cancelled events stay in the heap but are skipped when
            popped; this makes cancellation O(1).
        label: optional human-readable tag used in traces and debugging.
    """

    __slots__ = ("time", "seq", "action", "cancelled", "label", "fired", "_queue")

    def __init__(
        self,
        time: float,
        seq: int,
        action: Callable[[], None],
        cancelled: bool = False,
        label: str = "",
    ) -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.cancelled = cancelled
        self.label = label
        self.fired = False
        self._queue: Optional["EventQueue"] = None

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when popped.

        Routes through the owning queue so live/cancelled accounting (and
        auto-compaction) stays exact no matter which cancel API a caller
        uses; idempotent, and a no-op once the event has fired.
        """
        queue = self._queue
        if queue is not None:
            queue.cancel(self)
        else:
            self.cancelled = True

    #: Runtime-interface spelling: ``Runtime.call_later`` promises a handle
    #: with ``stop()``, matching :class:`repro.runtime.api.TimerHandle`.
    stop = cancel

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"Event(t={self.time}, seq={self.seq}, {state}, label={self.label!r})"


class EventQueue:
    """Min-heap of :class:`Event` objects keyed by (time, seq)."""

    def __init__(self) -> None:
        # Entries are ``(time, seq, Event)`` for cancellable events and
        # ``(time, seq, callable, args)`` for fire-and-forget callbacks; see
        # Simulator.defer.  ``seq`` is unique, so tuple comparison never reaches
        # the third element and the two shapes can share one heap.
        self._heap: List[Tuple[float, int, Any]] = []
        self._counter = 0
        self._live = 0
        self._cancelled_in_heap = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    @property
    def cancelled_in_heap(self) -> int:
        """Cancelled entries still occupying heap slots (for diagnostics)."""
        return self._cancelled_in_heap

    @property
    def heap_size(self) -> int:
        """Total heap entries, live and cancelled (for diagnostics)."""
        return len(self._heap)

    def push(self, time: float, action: Callable[[], None], label: str = "") -> Event:
        """Insert a new event and return it (so callers may cancel it)."""
        event = Event(time=time, seq=self._counter, action=action, label=label)
        event._queue = self
        self._counter += 1
        self._live += 1
        heapq.heappush(self._heap, (time, event.seq, event))
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest non-cancelled event, or ``None``.

        Bare callbacks pushed by ``Simulator.defer`` are wrapped in a
        fired :class:`Event` so every caller sees one interface.
        """
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            payload = entry[2]
            if payload.__class__ is Event:
                if payload.cancelled:
                    self._cancelled_in_heap -= 1
                    continue
                payload.fired = True
                self._live -= 1
                return payload
            self._live -= 1
            args = entry[3]
            event = Event(
                time=entry[0],
                seq=entry[1],
                action=partial(payload, *args) if args else payload,
            )
            event.fired = True
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the next live event without removing it."""
        heap = self._heap
        while heap:
            payload = heap[0][2]
            if payload.__class__ is Event and payload.cancelled:
                heapq.heappop(heap)
                self._cancelled_in_heap -= 1
                continue
            return heap[0][0]
        return None

    def cancel(self, event: Event) -> bool:
        """Cancel ``event`` with exact live-count accounting.

        Safe against double cancellation and against cancelling an event
        that already fired: both are no-ops.  Returns whether the event was
        actually cancelled by this call.
        """
        if event.cancelled or event.fired:
            return False
        event.cancelled = True  # direct flag write; Event.cancel would recurse
        self._live -= 1
        self._cancelled_in_heap += 1
        self._maybe_compact()
        return True

    def discard_cancelled(self) -> None:
        """Compact the heap by dropping cancelled entries (occasional GC).

        Compacts *in place* (slice assignment, not rebinding): the event
        loop and the hot-path schedulers hold direct references to the heap
        list, and a rebind here would strand them on a stale list.
        """
        self._heap[:] = [
            entry
            for entry in self._heap
            if entry[2].__class__ is not Event or not entry[2].cancelled
        ]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0

    def _maybe_compact(self) -> None:
        heap_size = len(self._heap)
        if (
            heap_size >= _COMPACT_MIN_HEAP
            and self._cancelled_in_heap > heap_size * _COMPACT_FRACTION
        ):
            self.discard_cancelled()
