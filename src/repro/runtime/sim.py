"""Deterministic runtime backend: the discrete-event simulator adapter.

:class:`SimRuntime` wraps the existing :class:`~repro.sim.simulator.Simulator`
and its :class:`~repro.net.network.Network` behind the
:mod:`repro.runtime.api` interface; its ``run(timeout=...)`` serves exactly
that many simulated seconds.  The adapter is intentionally thin and
behaviour-preserving: the same event counts, the same committed ledgers,
the same stats as the pre-runtime code — which is what makes the sim the
conformance oracle for the real asyncio backend.

:class:`SimCpu` is the simulated machine: one serial CPU per node, charged
by the deployment's one :class:`~repro.net.costs.NodeCostModel` (the
network's, which :meth:`SimRuntime.create_cpu` hands to every CPU, clients'
included), so protocol code never touches cost-model arithmetic.  A node
hands its CPU each message it sends or receives, and :class:`SimCpu` alone
classifies it (wire size, signed or not, how many signatures to verify)
into a modeled cost.  Saturation of that serial resource is what bends the
latency-throughput curves in Figures 2 and 3.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Callable, Deque, Optional, Tuple

from repro.crypto.digest import WIRE_SIZE_CACHE_ATTR
from repro.net.costs import NodeCostModel
from repro.net.network import Network
from repro.runtime.api import Cpu, Runtime
from repro.sim.simulator import Simulator, Timer


def wire_size_of(payload: Any) -> int:
    """Serialized size in bytes of a protocol message.

    Messages may expose ``wire_size()``; otherwise we approximate with the
    length of the repr, which is stable enough for cost purposes.  Protocol
    messages cache the estimate (batch sizes walk every inner request, and
    the same object is re-sized on every retransmission and relay); the
    cache is dropped by ``copy.copy`` together with the digest caches.
    """
    try:
        cached = payload.__dict__.get(WIRE_SIZE_CACHE_ATTR)
    except AttributeError:
        cached = None
    if cached is not None:
        return cached
    cached_fn = getattr(payload, "cached_wire_size", None)
    if callable(cached_fn):
        return cached_fn()
    size_fn = getattr(payload, "wire_size", None)
    if callable(size_fn):
        return int(size_fn())
    return len(repr(payload))


def is_signed(payload: Any) -> bool:
    """Whether the message carries a public-key signature to verify."""
    return bool(getattr(payload, "signed", False))


class SimCpu(Cpu):
    """A serial execution resource (one CPU core) in the simulation.

    Work items are ``(cost_seconds, handler)`` pairs drained in FIFO order.
    The CPU is non-preemptive: once a handler's cost has been charged the
    handler runs to completion at that instant.  A crashed CPU silently
    drops all submitted and queued work, which is exactly the fail-stop
    behaviour the paper assumes for the private cloud.
    """

    def __init__(self, simulator: Simulator, name: str, cost_model: NodeCostModel) -> None:
        self._simulator = simulator
        self.name = name
        self.cost_model = cost_model
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

    def submit(self, cost: float, handler: Callable[..., None], args: tuple = ()) -> None:
        """Enqueue a work item costing ``cost`` simulated seconds of CPU.

        ``args`` is star-applied to ``handler`` when the CPU reaches the
        item, which lets hot callers avoid a ``functools.partial`` per
        message.  Work submitted to a crashed CPU is dropped silently:
        a crashed server neither processes nor acknowledges anything.
        """
        if cost < 0:
            raise ValueError(f"work cost cannot be negative: {cost}")
        if self.crashed:
            return
        if self._busy:
            self._queue.append((cost, handler, args))
            return
        # Idle fast path: an idle CPU always has an empty queue (the
        # completion handler refills from the queue before going idle), so
        # the item starts immediately — skip the deque round trip and push
        # the completion onto the simulator's heap as Simulator.defer would.
        self._busy = True
        self._busy_time += cost
        self._current = handler
        self._current_args = args
        simulator = self._simulator
        seq = simulator._seq
        simulator._seq = seq + 1
        heappush(simulator._heap, (simulator._now + cost, seq, self._finish_current, ()))

    def submit_send(self, payload: Any, handler: Callable[..., None], args: tuple = ()) -> None:
        # Inlined wire_size_of cache probe, cost-memo probe and submit idle
        # fast path: this runs once per sent message, hundreds of thousands
        # of times per benchmark run.
        try:
            size = payload.__dict__.get(WIRE_SIZE_CACHE_ATTR)
        except AttributeError:
            size = None
        if size is None:
            size = wire_size_of(payload)
        signed = True if getattr(payload, "signed", False) else False
        cost_model = self.cost_model
        cost = cost_model._cost_memo.get((size, signed))
        if cost is None:
            cost = cost_model.send_cost(size, signed)
        if self.crashed:
            return
        args = (*args, size)
        if self._busy:
            self._queue.append((cost, handler, args))
            return
        self._busy = True
        self._busy_time += cost
        self._current = handler
        self._current_args = args
        simulator = self._simulator
        seq = simulator._seq
        simulator._seq = seq + 1
        heappush(simulator._heap, (simulator._now + cost, seq, self._finish_current, ()))

    def submit_receive(
        self, payload: Any, size: int, handler: Callable[..., None], args: tuple = ()
    ) -> None:
        # A signed message carries ``signature_count`` signatures to verify
        # (one unless it says otherwise).  Inlined, with the cost-memo probe:
        # a few getattrs and call frames per delivery add up at hundreds of
        # thousands of messages.
        if getattr(payload, "signed", False):
            count = getattr(payload, "signature_count", None)
            key = (size, True, 1 if count is None else int(count))
        else:
            key = (size, False, 0)
        cost_model = self.cost_model
        cost = cost_model._cost_memo.get(key)
        if cost is None:
            cost = cost_model.receive_cost(*key)
        if self.crashed:
            return
        if self._busy:
            self._queue.append((cost, handler, args))
            return
        self._busy = True
        self._busy_time += cost
        self._current = handler
        self._current_args = args
        simulator = self._simulator
        seq = simulator._seq
        simulator._seq = seq + 1
        heappush(simulator._heap, (simulator._now + cost, seq, self._finish_current, ()))

    def submit_multicast(
        self, payload: Any, fanout: int, handler: Callable[..., None], args: tuple = ()
    ) -> None:
        """Content signed once, then per-destination serialization cost."""
        size = wire_size_of(payload)
        signed = is_signed(payload)
        cost_model = self.cost_model
        first_cost = cost_model.send_cost(size, signed)
        rest_cost = cost_model.send_cost(size, False)
        self.submit(first_cost + rest_cost * (fanout - 1), handler, (*args, size))

    def crash(self) -> None:
        """Fail-stop the CPU: drop queued work and refuse new work."""
        self.crashed = True
        self._queue.clear()

    def recover(self) -> None:
        """Bring a crashed CPU back (used by crash-recover experiments)."""
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
        seq = simulator._seq
        simulator._seq = seq + 1
        heappush(simulator._heap, (simulator._now + cost, seq, self._finish_current, ()))

    def utilisation(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time the CPU has been busy.

        Args:
            elapsed: window length; defaults to the current simulated time.
        """
        window = elapsed if elapsed is not None else self._simulator.now
        if window <= 0:
            return 0.0
        return min(1.0, self._busy_time / window)


class SimRuntime(Runtime):
    """Runtime facade over a simulator and its modeled network."""

    def __init__(self, simulator: Simulator, network: Network) -> None:
        self.simulator = simulator
        self.network = network

    @property
    def now(self) -> float:
        return self.simulator.now

    def timer(self, callback: Callable[[], None], label: str = "") -> Timer:
        return self.simulator.timer(callback, label=label)

    def create_cpu(self, name: str) -> SimCpu:
        return SimCpu(self.simulator, name, self.network.cost_model)

    def register(self, node: Any) -> None:
        self.network.register(node)

    def call_later(self, delay: float, action: Callable[[], None], label: str = "") -> Timer:
        timer = self.simulator.timer(action, label=label)
        timer.start(delay)
        return timer

    def run(
        self,
        kickoff: Optional[Callable[[], None]] = None,
        until: Optional[Callable[[], bool]] = None,
        timeout: float = 10.0,
    ) -> bool:
        """Serve exactly ``timeout`` simulated seconds, then judge ``until``."""
        if timeout < 0:
            raise ValueError(f"timeout must not be negative: {timeout}")
        if kickoff is not None:
            kickoff()
        self.simulator.run(until=self.simulator.now + timeout)
        return until is None or until()
