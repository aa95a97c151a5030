"""Deterministic runtime backend: the discrete-event simulator adapter.

:class:`SimRuntime` wraps the existing :class:`~repro.sim.simulator.Simulator`
and its :class:`~repro.net.network.Network` behind the
:mod:`repro.runtime.api` interface; its ``run(timeout=...)`` serves exactly
that many simulated seconds.  The adapter is intentionally thin and
behaviour-preserving: the same event counts, the same committed ledgers,
the same stats as the pre-runtime code — which is what makes the sim the
conformance oracle for the real asyncio backend.

:class:`SimCpu` is where the modeled CPU-cost accounting now lives.  The
cost computations (including the memoized cost-model probes) used to sit
inline in ``repro.net.node``; they moved here verbatim so protocol code
never touches :class:`~repro.net.costs.NodeCostModel` arithmetic, while
the event sequence stays byte-identical.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Optional

from repro.net.costs import NodeCostModel
from repro.net.network import Network
from repro.runtime.api import Cpu, Runtime
from repro.sim.process import Process
from repro.sim.simulator import Simulator, Timer


class SimCpu(Process, Cpu):
    """A simulated serial CPU that owns its node's cost model.

    Extends :class:`~repro.sim.process.Process` with the cost-aware
    ``submit_send`` / ``submit_receive`` / ``submit_multicast`` entry
    points.  Each replicates the exact inlined fast path the node used to
    run (memo probe, then the idle-CPU direct schedule), so a sim run
    produces the same event heap contents as before the refactor.
    """

    def __init__(
        self, simulator: Simulator, name: str, cost_model: Optional[NodeCostModel] = None
    ) -> None:
        super().__init__(simulator, name=name)
        self.cost_model = cost_model or NodeCostModel()

    def submit_send(
        self, size: int, signed: bool, handler: Callable[..., None], args: tuple = ()
    ) -> None:
        # Inlined cost-memo probe and Process.submit idle fast path: this
        # runs once per sent message, hundreds of thousands of times per
        # benchmark run.
        cost_model = self.cost_model
        cost = cost_model._cost_memo.get((size, signed))
        if cost is None:
            cost = cost_model.send_cost(size, signed)
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
        queue = simulator._queue
        seq = queue._counter
        queue._counter = seq + 1
        queue._live += 1
        heappush(
            queue._heap, (simulator._clock._now + cost, seq, self._finish_current, ())
        )

    def submit_receive(
        self,
        size: int,
        signed: bool,
        signature_count: int,
        handler: Callable[..., None],
        args: tuple = (),
    ) -> None:
        cost_model = self.cost_model
        key = (size, signed, signature_count)
        cost = cost_model._cost_memo.get(key)
        if cost is None:
            cost = cost_model.receive_cost(size, signed, signature_count)
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
        queue = simulator._queue
        seq = queue._counter
        queue._counter = seq + 1
        queue._live += 1
        heappush(
            queue._heap, (simulator._clock._now + cost, seq, self._finish_current, ())
        )

    def submit_multicast(
        self, size: int, signed: bool, fanout: int, handler: Callable[..., None], args: tuple = ()
    ) -> None:
        """Content signed once, then per-destination serialization cost."""
        cost_model = self.cost_model
        first_cost = cost_model.send_cost(size, signed)
        rest_cost = cost_model.send_cost(size, False)
        self.submit(first_cost + rest_cost * (fanout - 1), handler, args)


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

    def create_cpu(self, name: str, cost_model: Optional[NodeCostModel] = None) -> SimCpu:
        return SimCpu(self.simulator, name=name, cost_model=cost_model)

    def register(self, node: Any) -> None:
        self.network.register(node)

    def call_later(self, delay: float, action: Callable[[], None], label: str = "") -> Any:
        return self.simulator.call_later(delay, action, label=label)

    def defer(self, delay: float, action: Callable[..., None], args: tuple = ()) -> None:
        self.simulator.defer(delay, action, args)

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
