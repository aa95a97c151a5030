"""Base class for every server and client, on either runtime backend.

A :class:`Node` couples a single-threaded CPU (:class:`repro.runtime.api.Cpu`)
with a transport attachment.  Protocol replicas and clients subclass it and
implement :meth:`Node.handle_message`.  The node is sans-IO: it never
touches the simulator or the network machinery directly — everything goes
through the :class:`~repro.runtime.api.Runtime` it was built on, so the
same protocol code runs under the deterministic simulator and under the
asyncio-TCP backend.

Message accounting follows the paper's deployment:

* every *handled* message charges deserialization + digest + signature/MAC
  verification CPU on the receiver;
* every *sent* message charges serialization + signature/MAC CPU on the
  sender; a multicast signs the content once and then pays only the
  per-destination serialization cost.

The node classifies nothing: it hands its CPU each message it sends,
multicasts or receives, and the runtime's CPU turns the message into a
cost — the sim backend classifies it (wire size, signed or not, how many
signatures to verify) against its modeled service times, the aio backend
only queues it and measures elapsed time.  A node holds no cost model: the
runtime builds its CPU from the node's name alone.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.runtime.api import Runtime, TimerHandle, Transport


class Node:
    """A machine: one CPU, one transport interface, many timers."""

    def __init__(self, node_id: str, runtime: Runtime) -> None:
        self.node_id = node_id
        self.runtime = runtime
        self.process = self.runtime.create_cpu(node_id)
        self._transport: Optional[Transport] = None
        self.messages_handled = 0
        self.messages_sent = 0
        self.bytes_sent = 0  # modeled bytes; 0 on a backend that models none

    # -- wiring -----------------------------------------------------------

    def attach(self, transport: Transport) -> None:
        """Called by the transport/network when the node is registered."""
        self._transport = transport

    @property
    def network(self) -> Transport:
        """The attached transport (named for the sim network, its usual form)."""
        if self._transport is None:
            raise RuntimeError(f"node {self.node_id!r} is not attached to a transport")
        return self._transport

    @property
    def now(self) -> float:
        return self.runtime.now

    @property
    def crashed(self) -> bool:
        return self.process.crashed

    def crash(self) -> None:
        """Fail-stop this node: it stops processing and sending."""
        self.process.crash()

    def recover(self) -> None:
        self.process.recover()

    def create_timer(self, callback, label: str = "") -> TimerHandle:
        """Create an unarmed timer owned by this node."""
        return self.runtime.timer(callback, label=f"{self.node_id}:{label}")

    # -- sending ----------------------------------------------------------

    def send(self, dst: str, payload: Any) -> None:
        """Send one message to one destination, charging send-side CPU."""
        process = self.process
        if process.crashed:
            return
        process.submit_send(payload, self._transmit, (dst, payload))

    def multicast(self, destinations: Iterable[str], payload: Any) -> None:
        """Send the same message to many destinations.

        The content is signed once; each destination then costs only the
        per-message serialization and channel MAC.
        """
        if self.process.crashed:
            return
        targets = [dst for dst in destinations if dst != self.node_id]
        if not targets:
            return

        def transmit_all(size: int) -> None:
            for dst in targets:
                self._transmit(dst, payload, size)

        self.process.submit_multicast(payload, len(targets), transmit_all)

    def _transmit(self, dst: str, payload: Any, size: int) -> None:
        if self.process.crashed:
            return
        self.messages_sent += 1
        self.bytes_sent += size
        # Direct attribute read: a detached node cannot have queued CPU work,
        # so the property's guard would never fire here anyway.
        self._transport.deliver(self.node_id, dst, payload, size)

    # -- receiving --------------------------------------------------------

    def deliver(self, src: str, payload: Any, size: int) -> None:
        """Called by the transport when a message arrives at this node.

        The message waits in the CPU queue and is handled once the CPU has
        paid its receive cost.  Crashed nodes drop everything.
        """
        process = self.process
        if process.crashed:
            return
        process.submit_receive(payload, size, self._handle, (src, payload))

    def _handle(self, src: str, payload: Any) -> None:
        if self.process.crashed:
            return
        self.messages_handled += 1
        self.handle_message(src, payload)

    def handle_message(self, src: str, payload: Any) -> None:
        """Protocol logic entry point; subclasses must implement."""
        raise NotImplementedError
