"""The narrow runtime interface the protocol core is allowed to see.

Protocol code (``repro.core``, ``repro.smr``, ``repro.net.node``) is
sans-IO: replicas and clients express *what* to do — send this message,
arm this timer, handle this delivery — and a :class:`Runtime` decides
*how*, and what it costs.  Two interchangeable implementations exist:

* :class:`repro.runtime.sim.SimRuntime` adapts the deterministic
  discrete-event simulator (``repro.sim``) and its modeled network —
  byte-identical behaviour to the pre-runtime code paths, which keeps the
  sim usable as a conformance oracle;
* :class:`repro.runtime.aio.AioRuntime` runs every node in one asyncio
  event loop, speaking the binary wire codec over length-prefixed TCP on
  loopback, with real monotonic-clock timers.

This module is a dependency leaf by design: it must not import
``repro.sim`` or ``repro.net.network`` at module scope, because the
protocol files import it and the import-boundary test
(``tests/test_runtime_boundaries.py``) forbids those modules from ever
reaching protocol code transitively through here.
"""

from __future__ import annotations

from typing import Any, Callable, Optional


class ClockSource:
    """Read-only time source: simulated seconds or real monotonic seconds."""

    @property
    def now(self) -> float:
        raise NotImplementedError


class TimerHandle:
    """A cancellable, restartable timer.

    Semantics shared by every backend (and pinned down by
    ``tests/test_runtime_timers.py``):

    * ``start`` arms (or re-arms) the timer ``delay`` seconds from now;
    * ``restart`` is an alias for ``start``;
    * ``stop`` is idempotent, safe on a never-started timer, and safe
      when racing an expiry that already fired;
    * firing disarms the timer before invoking the callback, so the
      callback may immediately re-arm it;
    * timers are owned by the runtime, not by a CPU: a timer still fires
      after its node's CPU crashed (protocol callbacks guard on the crash
      flag themselves, exactly as they did under the simulator).
    """

    @property
    def label(self) -> str:
        raise NotImplementedError

    @property
    def active(self) -> bool:
        raise NotImplementedError

    def start(self, delay: float) -> None:
        raise NotImplementedError

    def restart(self, delay: float) -> None:
        self.start(delay)

    def stop(self) -> None:
        raise NotImplementedError


class Cpu:
    """A node's serial execution resource, with cost accounting behind it.

    All CPU-cost policy lives here — *not* in protocol code.  A node hands
    its CPU each message it sends or receives; what that costs is the
    backend's business.  The sim backend classifies the message (wire size,
    signed or not, how many signatures to verify) and charges its
    deployment's one cost model, a :class:`~repro.net.costs.NodeCostModel`
    (send/receive/multicast service times in simulated seconds); the aio
    backend has none, only queues the work, and measures real elapsed time
    into the same stats fields (``busy_time``, ``items_processed``), so
    utilisation numbers stay comparable across backends.

    A send's handler is called with its ``args`` followed by the message's
    modeled wire size, which the node hands its transport; a backend that
    models no size passes 0.

    The crash flag models fail-stop: a crashed CPU drops submitted and
    queued work silently.  ``crashed`` is a plain attribute on every
    implementation because the send/deliver hot paths read it per message.
    """

    crashed: bool

    def submit(self, cost: float, handler: Callable[..., None], args: tuple = ()) -> None:
        """Enqueue a work item with an explicit modeled cost."""
        raise NotImplementedError

    def submit_send(self, payload: Any, handler: Callable[..., None], args: tuple = ()) -> None:
        """Enqueue the send of ``payload``: serialization plus (if signed) signing;
        then ``handler(*args, size)``."""
        raise NotImplementedError

    def submit_receive(
        self, payload: Any, size: int, handler: Callable[..., None], args: tuple = ()
    ) -> None:
        """Enqueue the receipt of ``payload`` (``size`` bytes as the transport carried it):
        deserialization, digest and verification; then ``handler(*args)``."""
        raise NotImplementedError

    def submit_multicast(
        self, payload: Any, fanout: int, handler: Callable[..., None], args: tuple = ()
    ) -> None:
        """Enqueue the send of ``payload`` to ``fanout`` targets, content signed once and
        serialized per target; then ``handler(*args, size)``."""
        raise NotImplementedError

    def crash(self) -> None:
        raise NotImplementedError

    def recover(self) -> None:
        raise NotImplementedError

    @property
    def busy_time(self) -> float:
        raise NotImplementedError

    @property
    def items_processed(self) -> int:
        raise NotImplementedError

    @property
    def queue_depth(self) -> int:
        raise NotImplementedError

    def utilisation(self, elapsed: Optional[float] = None) -> float:
        raise NotImplementedError


class Transport:
    """Message fabric with sender-authenticated identity.

    ``deliver(src, dst, payload, size_bytes)`` routes one message.  The
    ``src`` attribution is trustworthy by construction in both backends:
    the sim network identifies senders by the object doing the sending,
    and the aio transport identifies them by the connection a message
    arrived on (each sender opens its own connection and declares its id
    once in the connection handshake).  Spoofing would require holding the
    victim's connection, which mirrors the paper's pairwise authenticated
    channels.
    """

    def deliver(self, src: str, dst: str, payload: Any, size_bytes: int) -> None:
        raise NotImplementedError


class Runtime(ClockSource):
    """Facade owning scheduling: clock, timers, CPUs, and the transport.

    A node built against a ``Runtime`` never touches the simulator or the
    modeled network directly; everything it needs funnels through this
    surface.  Every callback it schedules is a :class:`TimerHandle`, armed
    by hand (:meth:`timer`) or already started (:meth:`call_later`).
    """

    @property
    def now(self) -> float:
        raise NotImplementedError

    def timer(self, callback: Callable[[], None], label: str = "") -> TimerHandle:
        """Create an unarmed timer."""
        raise NotImplementedError

    def create_cpu(self, name: str) -> Cpu:
        """Create the serial CPU for the node named ``name``; the backend picks its costs."""
        raise NotImplementedError

    def register(self, node: Any) -> None:
        """Attach ``node`` to the transport (its id must be unique)."""
        raise NotImplementedError

    def call_later(
        self, delay: float, action: Callable[[], None], label: str = ""
    ) -> TimerHandle:
        """Schedule a one-shot callback ``delay`` seconds from now.

        Returns the started :class:`TimerHandle`: stopping it after the
        callback fired is a no-op.  A negative ``delay`` is a ``ValueError``.
        """
        raise NotImplementedError

    def run(
        self,
        kickoff: Optional[Callable[[], None]] = None,
        until: Optional[Callable[[], bool]] = None,
        timeout: float = 10.0,
    ) -> bool:
        """Serve the nodes for ``timeout`` of this runtime's seconds.

        ``kickoff`` is called once, inside the run, before anything else is
        served.  Returns whether ``until()`` held at the end (always ``True``
        with no predicate).  A backend may return as soon as ``until()``
        holds; the simulator always serves the whole ``timeout``.  A negative
        ``timeout`` is a ``ValueError`` before ``kickoff`` runs.
        """
        raise NotImplementedError

