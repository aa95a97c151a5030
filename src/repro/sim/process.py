"""Single-threaded server processes with a CPU cost model.

The paper's replicas are real servers: each message costs CPU time to
deserialize, verify, and handle, and a server can only do one thing at a
time.  Saturation of that serial resource is what bends the
latency-throughput curves in Figures 2 and 3.

:class:`Process` models exactly that: a FIFO work queue drained one item at
a time, where each item carries a service-time cost in simulated seconds.
Higher layers (the network, the replica engine) submit work via
:meth:`Process.submit`; the process charges the cost and invokes the handler
when the "CPU" gets to it.
"""

from __future__ import annotations

import enum
from collections import deque
from heapq import heappush
from typing import Callable, Deque, Optional, Tuple

from repro.sim.simulator import Simulator


class ProcessState(enum.Enum):
    """Lifecycle of a simulated server process."""

    RUNNING = "running"
    CRASHED = "crashed"


class Process:
    """A serial execution resource (one CPU core) in the simulation.

    Work items are ``(cost_seconds, handler)`` pairs.  The process is
    non-preemptive: once a handler's cost has been charged the handler runs
    to completion at that instant.  Crashed processes silently drop all
    submitted and queued work, which is exactly the fail-stop behaviour the
    paper assumes for the private cloud.
    """

    def __init__(self, simulator: Simulator, name: str = "process") -> None:
        self._simulator = simulator
        self._name = name
        self._queue: Deque[Tuple[float, Callable[..., None], tuple]] = deque()
        self._busy = False
        # ``crashed`` is a plain attribute (not a property) because every
        # send/deliver/handle on the owning node reads it.
        self.crashed = False
        self._busy_time = 0.0
        self._items_processed = 0
        # Hot-path preallocations: one completion event fires per work item,
        # so the callback is a single pre-bound method (the running handler
        # and its arguments park in ``_current``/``_current_args``) instead
        # of a fresh closure or partial per item.
        self._current: Optional[Callable[..., None]] = None
        self._current_args: tuple = ()
        self._finish_current = self._finish

    @property
    def name(self) -> str:
        return self._name

    @property
    def state(self) -> ProcessState:
        return ProcessState.CRASHED if self.crashed else ProcessState.RUNNING

    @property
    def queue_depth(self) -> int:
        """Number of work items waiting for the CPU (excludes the running one)."""
        return len(self._queue)

    @property
    def busy_time(self) -> float:
        """Total simulated seconds spent executing work (utilisation numerator)."""
        return self._busy_time

    @property
    def items_processed(self) -> int:
        return self._items_processed

    def submit(
        self, cost: float, handler: Callable[..., None], args: tuple = ()
    ) -> None:
        """Enqueue a work item costing ``cost`` simulated seconds of CPU.

        ``args`` is star-applied to ``handler`` when the CPU reaches the
        item, which lets hot callers avoid a ``functools.partial`` per
        message.  Work submitted to a crashed process is dropped silently:
        a crashed server neither processes nor acknowledges anything.
        """
        if cost < 0:
            raise ValueError(f"work cost cannot be negative: {cost}")
        if self.crashed:
            return
        if self._busy:
            self._queue.append((cost, handler, args))
            return
        # Idle fast path: an idle process always has an empty queue (the
        # completion handler refills from the queue before going idle), so
        # the item starts immediately — skip the deque round trip and
        # schedule the completion directly (inlined Simulator.defer).
        self._busy = True
        self._busy_time += cost
        self._current = handler
        self._current_args = args
        simulator = self._simulator
        queue = simulator._queue
        seq = queue._counter
        queue._counter = seq + 1
        queue._live += 1
        heappush(
            queue._heap, (simulator._clock._now + cost, seq, self._finish_current, ())
        )

    def crash(self) -> None:
        """Fail-stop the process: drop queued work and refuse new work."""
        self.crashed = True
        self._queue.clear()

    def recover(self) -> None:
        """Bring a crashed process back (used by crash-recover experiments)."""
        self.crashed = False

    def _finish(self) -> None:
        handler = self._current
        args = self._current_args
        self._current = None
        if not self.crashed and handler is not None:
            self._items_processed += 1
            if args:
                handler(*args)
            else:
                handler()
        # The next item starts here, not in a helper: one completion fires per
        # work item, so the extra frame (and the re-checks it would repeat) add up.
        work_queue = self._queue
        if self.crashed or not work_queue:
            self._busy = False
            return
        self._busy = True
        cost, handler, args = work_queue.popleft()
        self._busy_time += cost
        self._current = handler
        self._current_args = args
        simulator = self._simulator
        queue = simulator._queue
        seq = queue._counter
        queue._counter = seq + 1
        queue._live += 1
        heappush(
            queue._heap, (simulator._clock._now + cost, seq, self._finish_current, ())
        )

    def utilisation(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time the CPU has been busy.

        Args:
            elapsed: window length; defaults to the current simulated time.
        """
        window = elapsed if elapsed is not None else self._simulator.now
        if window <= 0:
            return 0.0
        return min(1.0, self._busy_time / window)
