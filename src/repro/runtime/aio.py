"""Real-network runtime backend: asyncio Protocol callbacks over loopback TCP.

Every registered node gets its own TCP listener on ``127.0.0.1`` (ephemeral
port) and a serial CPU.  Messages travel as real bytes: every protocol type
ships its binary wire frame (:mod:`repro.wire`) inside a small envelope that
also carries what rides *beside* a signed frame — the detached signature,
piggybacked request/batch payloads with their client signatures, and a
state-transfer snapshot.

There is no task and no queue per message or per connection; the data path is
plain callbacks, and one turn of the event loop (a *tick*) does, in order:

1. **read** — each readable socket hands :class:`_Inbound` whatever arrived
   in one ``data_received`` call;
2. **decode → deliver** — every complete length-prefixed envelope in that
   buffer is decoded and handed to ``node.deliver``, which queues it on the
   node's :class:`AioCpu`.  An envelope that does not decode is dropped and
   counted (``frames_rejected``) and the channel stays up; a length prefix
   above ``MAX_FRAME_BYTES`` cannot be skipped, so the listener hangs up;
3. **drain slice** — each CPU with queued work runs its FIFO for at most
   ``CPU_SLICE_S`` and reschedules itself if work remains, so one busy node
   cannot keep the other nodes, the sockets or the timers waiting;
4. **flush** — sends made during the slices were appended to their
   (src, dst) :class:`_Outbound` channel; one flush callback per tick joins
   each dirty channel's frames into **one** ``transport.write``.  A multicast
   encodes its envelope once, not once per destination.

Sender identity is authenticated per connection, mirroring the paper's
pairwise authenticated channels: each (src, dst) pair uses a dedicated
connection whose first bytes declare the sender id, and every message
arriving on it is attributed to that id.  Spoofing replica *j* would
require writing on *j*'s connection.  A channel dials lazily on its first
flush and buffers until the connection is up; when a connection is lost the
next send dials again (what the kernel had not delivered is lost, as on any
TCP reset — the protocols retransmit).

Differences from the sim backend, by design:

* time is the real monotonic clock (seconds since runtime construction);
* a timer is a deadline plus at most one ``loop.call_at`` wake-up, with the
  exact semantics of :class:`repro.runtime.api.TimerHandle` (pinned by the
  shared timer tests).  Pushing a timer back — what every commit does to its
  replica's request timer — only moves the deadline, and stopping one only
  clears it; neither touches the loop's heap (see :class:`AioTimer`);
* the CPU ignores *modeled* costs and measures real elapsed time into
  the same ``busy_time`` / ``items_processed`` stats fields;
* delivery order between different sender pairs is whatever TCP and the
  event loop produce — which is exactly why the conformance harness
  (:mod:`repro.runtime.conformance`) checks that committed ledgers agree
  with the simulator anyway.
"""

from __future__ import annotations

import asyncio
import struct
import time
from collections import Counter, deque
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.crypto.digest import digest_bytes
from repro.crypto.signatures import Signature
from repro.runtime.api import Cpu, Runtime, TimerHandle, Transport
from repro.smr.messages import ProtocolMessage
from repro.wire.codec import decode as wire_decode
from repro.wire.primitives import pack_value, read_u16, read_value, read_window, truncated

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
#: A signature's presence flag and the byte lengths of its signer id, payload
#: digest and tag.
_SIGNATURE_HEAD = struct.Struct("<BHHH")

#: Largest envelope a peer may announce; a longer length prefix closes the
#: connection.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Longest a CPU runs its queue before it yields the event loop.  Bounded by
#: time, not by "what was queued when the slice began": the two measured the
#: same throughput, but only a time bound keeps another node's timer on time
#: when one node has a deep backlog.  0.1 ms cost ``aio-lion-closed`` a fifth
#: of its throughput (a tick per handful of items); 0.3, 0.5 and 1 ms tied
#: there, and ``aio-peacock-4k``, whose handlers are longer, gained 5 % from
#: 0.3 to 0.5 ms and 2 % more at 1 ms.  With seven nodes a full round of
#: 0.5 ms slices is 3.5 ms, the order of the 2 ms linger and ``until`` poll.
CPU_SLICE_S = 0.0005

#: How often a run loop (``AioRuntime.run``, a proc worker's main loop) looks
#: at its ``until`` predicate.  Not event-driven on purpose: ``benchmarks/e2e``
#: ticks its host-speed yardstick from inside ``until``, and the poll costs
#: under 1 %.
UNTIL_POLL_S = 0.002

#: First byte of every message blob; a blob of any other kind is rejected.
_KIND_FRAME = b"\x01"

#: Kinds of the items that ride beside a frame (``message.detached()``).
_ITEM_NONE = b"\x00"
_ITEM_MESSAGE = b"\x01"  # a piggybacked request / batch: its own frame + items
_ITEM_SIGNATURE = b"\x02"  # an inner client signature
_ITEM_VALUE = b"\x03"  # a plain value (state-transfer snapshot)


# -- envelope codec ----------------------------------------------------------


def _pack_signature(out: list, signature: Optional[Signature]) -> None:
    if signature is None:
        out.append(b"\x00")
        return
    signer = signature.signer_id.encode("utf-8")
    payload_digest = signature.payload_digest.encode("utf-8")
    tag = signature.tag.encode("utf-8")
    out += (
        _SIGNATURE_HEAD.pack(1, len(signer), len(payload_digest), len(tag)),
        signer,
        payload_digest,
        tag,
    )


def _pack_message(out: list, message: Any) -> None:
    """``frame | signature | item count u16 | item*`` for one message."""
    frame = message.wire_slice()
    out.append(_U32.pack(len(frame)))
    out.append(frame)
    _pack_signature(out, message.signature)
    items = message.detached()
    out.append(_U16.pack(len(items)))
    for item in items:
        if item is None:
            out.append(_ITEM_NONE)
        elif type(item) is Signature:
            out.append(_ITEM_SIGNATURE)
            _pack_signature(out, item)
        elif isinstance(item, ProtocolMessage):
            out.append(_ITEM_MESSAGE)
            _pack_message(out, item)
        else:
            value = pack_value(item)
            out.append(_ITEM_VALUE)
            out.append(_U32.pack(len(value)))
            out.append(value)


def _read_signature(buf: bytes, off: int, end: int) -> Tuple[Optional[Signature], int]:
    if off >= end:
        raise truncated(1, off, end)
    if not buf[off]:
        return None, off + 1
    start = off + _SIGNATURE_HEAD.size
    if start > end:
        raise truncated(_SIGNATURE_HEAD.size, off, end)
    _, signer_len, digest_len, tag_len = _SIGNATURE_HEAD.unpack_from(buf, off)
    signer_end = start + signer_len
    digest_end = signer_end + digest_len
    stop = digest_end + tag_len
    if stop > end:
        raise truncated(stop - start, start, end)
    signature = Signature(
        signer_id=buf[start:signer_end].decode("utf-8"),
        payload_digest=buf[signer_end:digest_end].decode("utf-8"),
        tag=buf[digest_end:stop].decode("utf-8"),
    )
    return signature, stop


def _read_message(buf: bytes, off: int, end: int, nested: bool = False) -> Tuple[Any, int]:
    # The one copy of the frame: decoding a slice confines every length
    # inside it to the frame, and the slice is what gets digested and kept.
    off, stop = read_window(buf, off, end)
    frame = buf[off:stop]
    message = wire_decode(frame)
    signature, off = _read_signature(buf, stop, end)
    count, off = read_u16(buf, off, end)
    expected = len(message.detached())
    if count != expected:
        raise ValueError(
            f"{type(message).__name__} carries {count} detached items, expected {expected}"
        )
    if count:
        items = []
        for _ in range(count):
            if off >= end:
                raise truncated(1, off, end)
            kind = buf[off : off + 1]
            off += 1
            if kind == _ITEM_SIGNATURE:
                item, off = _read_signature(buf, off, end)
            elif kind == _ITEM_NONE:
                item = None
            elif kind == _ITEM_MESSAGE and not nested:
                item, off = _read_message(buf, off, end, nested=True)
            elif kind == _ITEM_VALUE:
                off, stop = read_window(buf, off, end)
                item, off = read_value(buf, off, stop)
                if off != stop:
                    raise ValueError("trailing bytes after a detached value")
            else:
                raise ValueError(f"unknown or misplaced detached item kind: {kind!r}")
            items.append(item)
        message.attach(iter(items))
    # The receiver's digest (what signature verification compares against)
    # must be computed over exactly the bytes the sender signed.  A top-level
    # message also keeps that frame as its frozen form (saves a re-encode on
    # relay).  A piggybacked request or batch keeps the digest only: its
    # frame duplicates the payloads just decoded from it, every replica logs
    # every batch, and it is re-sent only on a view change, where
    # ``wire_slice()`` rebuilds the same bytes from the fields.
    message.seed_wire_caches(None if nested else frame, digest_bytes(frame))
    message.__dict__["signature"] = signature  # not content: no cache to invalidate
    return message, off


def encode_envelope(message: Any) -> bytes:
    """Serialize one protocol message (with signature and detached parts) to bytes."""
    out: list = [_KIND_FRAME]
    _pack_message(out, message)
    return b"".join(out)


def decode_envelope(blob: bytes) -> Any:
    """Rebuild the protocol message a peer sent, signatures reattached.

    Raises ``ValueError`` (``WireDecodeError`` included) on anything that is
    not a well-formed envelope around well-formed frames.
    """
    if blob[:1] != _KIND_FRAME:
        raise ValueError(f"unknown envelope kind: {blob[:1]!r}")
    end = len(blob)
    message, off = _read_message(blob, 1, end)
    if off != end:
        raise ValueError("trailing bytes after envelope")
    return message


# -- timers ------------------------------------------------------------------


class AioTimer(TimerHandle):
    """A restartable timer: the loop time it is due, and one pending wake-up.

    ``start`` moves the deadline.  It schedules a wake-up (``loop.call_at``)
    only when none is pending, and cancels one only when the new deadline is
    *earlier* than the wake-up; a timer that is pushed back, which is what
    protocol timers mostly are, costs two attribute writes.  The wake-up
    re-arms itself for the remainder when it finds the deadline moved, and
    otherwise fires.  ``stop`` clears the deadline and leaves the wake-up
    pending: it finds no deadline and does nothing, or a later ``start``
    reuses it.

    Arming requires the runtime's event loop to be running (timers are
    created unarmed in node constructors and armed from within ``run()``),
    matching the sim timer's contract exactly otherwise: idempotent stop,
    disarm-before-callback on fire, restart == start.
    """

    __slots__ = ("_runtime", "_callback", "_label", "_due", "_wakeup")

    def __init__(
        self, runtime: "AioRuntime", callback: Callable[[], None], label: str = ""
    ) -> None:
        self._runtime = runtime
        self._callback = callback
        self._label = label
        self._due: Optional[float] = None  # loop time to fire at; None while unarmed
        self._wakeup: Optional[asyncio.TimerHandle] = None

    @property
    def label(self) -> str:
        return self._label

    @property
    def active(self) -> bool:
        return self._due is not None

    def start(self, delay: float) -> None:
        loop = self._runtime._running_loop()
        due = self._due = loop.time() + delay
        wakeup = self._wakeup
        if wakeup is not None:
            if wakeup.when() <= due:
                return
            wakeup.cancel()
        self._wakeup = loop.call_at(due, self._wake)

    def _wake(self) -> None:
        self._wakeup = None
        due = self._due
        if due is None:
            return
        loop = self._runtime._running_loop()
        if due > loop.time():
            self._wakeup = loop.call_at(due, self._wake)
        else:
            self._due = None  # disarm before the callback so it may re-arm
            self._callback()

    def stop(self) -> None:
        self._due = None


# -- CPU ---------------------------------------------------------------------


class AioCpu(Cpu):
    """A node's serial executor: a FIFO drained in bounded slices, measured time.

    The modeled size/signed/fanout classifications are accepted and
    ignored — on this backend serialization and HMAC work is *real*, so
    the CPU simply measures elapsed wall time per slice into the same stats
    fields the sim CPU fills with modeled costs.
    """

    __slots__ = (
        "runtime", "name", "crashed", "_queue", "_scheduled", "_busy_time", "_items_processed"
    )

    def __init__(self, runtime: "AioRuntime", name: str) -> None:
        self.runtime = runtime
        self.name = name
        self.crashed = False
        self._queue: deque = deque()
        self._scheduled = False
        self._busy_time = 0.0
        self._items_processed = 0

    def submit(self, cost: float, handler: Callable[..., None], args: tuple = ()) -> None:
        if self.crashed:
            return
        self._queue.append((handler, args))
        if not self._scheduled:
            self._scheduled = True
            self.runtime._running_loop().call_soon(self._run_slice)

    def submit_send(
        self, size: int, signed: bool, handler: Callable[..., None], args: tuple = ()
    ) -> None:
        self.submit(0.0, handler, args)

    def submit_receive(
        self,
        size: int,
        signed: bool,
        signature_count: int,
        handler: Callable[..., None],
        args: tuple = (),
    ) -> None:
        self.submit(0.0, handler, args)

    def submit_multicast(
        self, size: int, signed: bool, fanout: int, handler: Callable[..., None], args: tuple = ()
    ) -> None:
        self.submit(0.0, handler, args)

    def _run_slice(self) -> None:
        """Run queued items in order for at most ``CPU_SLICE_S``, then yield the loop."""
        queue = self._queue
        perf_counter = time.perf_counter
        started = now = perf_counter()
        deadline = started + CPU_SLICE_S
        try:
            # ``crash()`` empties the queue, so a handler that crashes its
            # own node ends the slice.
            while queue and now < deadline:
                handler, args = queue.popleft()
                self._items_processed += 1
                handler(*args)
                now = perf_counter()
        finally:
            self._busy_time += perf_counter() - started
            self._scheduled = bool(queue)
            if queue:
                self.runtime._running_loop().call_soon(self._run_slice)

    def crash(self) -> None:
        self.crashed = True
        self._queue.clear()

    def recover(self) -> None:
        self.crashed = False

    @property
    def busy_time(self) -> float:
        return self._busy_time

    @property
    def items_processed(self) -> int:
        return self._items_processed

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def utilisation(self, elapsed: Optional[float] = None) -> float:
        if elapsed is None:
            elapsed = self.runtime.now
        if elapsed <= 0:
            return 0.0
        return self._busy_time / elapsed


# -- transport ---------------------------------------------------------------


class AioTransport(Transport):
    """Transport facade handed to nodes; delegates to the runtime's channels."""

    def __init__(self, runtime: "AioRuntime") -> None:
        self._runtime = runtime
        self.messages_offered = 0
        self._type_counts: Counter = Counter()

    def deliver(self, src: str, dst: str, payload: Any, size_bytes: int) -> None:
        self.messages_offered += 1
        self._type_counts[type(payload)] += 1
        self._runtime._enqueue_send(src, dst, payload)

    @property
    def message_type_counts(self) -> Counter:
        return Counter({cls.__name__: count for cls, count in self._type_counts.items()})


class _Outbound(asyncio.Protocol):
    """One ordered (src, dst) channel: frames wait here and leave in one write per flush."""

    __slots__ = ("_runtime", "_hello", "_dst", "_dialing", "pending", "transport")

    def __init__(self, runtime: "AioRuntime", src: str, dst: str) -> None:
        sender = src.encode("utf-8")
        self._runtime = runtime
        self._hello = _U16.pack(len(sender)) + sender
        self._dst = dst
        self._dialing = False
        self.pending: List[bytes] = []  # length-prefixed envelopes, oldest first
        self.transport: Optional[asyncio.Transport] = None

    def flush(self) -> None:
        """Write everything pending at once, or dial if there is no connection."""
        transport = self.transport
        if transport is None:
            runtime = self._runtime
            # Until the destination table is complete (a proc worker waiting
            # for the supervisor's broadcast) frames stay buffered.
            if runtime._endpoints_ready and not self._dialing:
                self._dialing = True
                runtime._spawn(self._dial())
        elif self.pending:
            transport.write(b"".join(self.pending))
            self.pending.clear()
            self._runtime.writes_issued += 1

    async def _dial(self) -> None:
        runtime = self._runtime
        try:
            port = runtime._ports.get(self._dst)
            if port is not None:
                await runtime._running_loop().create_connection(
                    lambda: self, runtime._host, port
                )
        except OSError:
            pass
        finally:
            self._dialing = False
            if self.transport is None:
                # Unknown or unreachable destination: dropped, mirroring the
                # sim network.  The next send dials again.
                self.pending.clear()

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.pending.insert(0, self._hello)
        self.flush()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.transport = None


class _Inbound(asyncio.Protocol):
    """One accepted connection: hello, then length-prefixed envelopes for one node."""

    __slots__ = ("_runtime", "_node", "_sender", "_partial", "_need", "transport")

    def __init__(self, runtime: "AioRuntime", node: Any) -> None:
        self._runtime = runtime
        self._node = node
        self._sender: Optional[str] = None
        self._partial = bytearray()  # an incomplete hello or frame, kept between reads
        self._need = 0  # bytes ``_partial`` must reach before parsing resumes
        self.transport: Optional[asyncio.Transport] = None

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self._runtime._inbound.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.transport = None
        self._runtime._inbound.discard(self)

    def _hang_up(self) -> None:
        self._runtime.frames_rejected += 1
        self.transport.close()

    def data_received(self, data: bytes) -> None:
        """Deliver every complete envelope in the buffer; keep the incomplete tail."""
        partial = self._partial
        if partial:
            partial += data
            if len(partial) < self._need:
                return
            data = bytes(partial)
            partial.clear()
        runtime = self._runtime
        off, end = 0, len(data)
        sender = self._sender
        if sender is None:
            need = 2 + _U16.unpack_from(data)[0] if end >= 2 else 2
            if end >= need:
                try:
                    sender = self._sender = data[2:need].decode("utf-8")
                except UnicodeDecodeError:
                    return self._hang_up()
                off = need
        if sender is not None:
            deliver = self._node.deliver
            while True:
                need = 4
                if end - off < 4:
                    break
                (length,) = _U32.unpack_from(data, off)
                if length > MAX_FRAME_BYTES:
                    # Not buffered, so the stream cannot be resynchronised.
                    return self._hang_up()
                need += length
                if end - off < need:
                    break
                blob = data[off + 4 : off + need]
                off += need
                try:
                    message = decode_envelope(blob)
                except ValueError:
                    # Frames are length prefixed: drop this one, keep reading.
                    runtime.frames_rejected += 1
                    continue
                runtime.messages_delivered += 1
                runtime.bytes_delivered += length
                deliver(sender, message, length)
        if off < end:
            partial += data[off:]
            self._need = need


# -- runtime -----------------------------------------------------------------


class AioRuntime(Runtime):
    """Runtime facade over an asyncio loopback-TCP cluster.

    Usage: construct, build nodes against it, ``register`` each one, then
    call :meth:`run` exactly once — it starts one TCP listener per node,
    invokes ``kickoff`` inside the loop (this is where clients start and
    timers first arm), and polls ``until`` up to ``timeout`` real seconds
    before shutting every connection, listener and task down.
    """

    def __init__(self, host: str = "127.0.0.1") -> None:
        self._host = host
        self._origin = time.monotonic()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._nodes: Dict[str, Any] = {}
        self._ports: Dict[str, int] = {}
        self._endpoints_ready = False
        self._servers: list = []
        self._channels: Dict[Tuple[str, str], _Outbound] = {}
        self._dirty: Dict[_Outbound, None] = {}  # sent on since the last flush, in order
        self._inbound: set = set()
        self._encoded: Tuple[Any, bytes] = (None, b"")  # last payload sent this tick, framed
        self._tasks: set = set()
        self.transport = AioTransport(self)
        self.messages_delivered = 0
        self.bytes_delivered = 0
        self.frames_rejected = 0
        self.frames_sent = 0
        self.writes_issued = 0

    # -- Runtime interface -------------------------------------------------

    @property
    def now(self) -> float:
        return time.monotonic() - self._origin

    def timer(self, callback: Callable[[], None], label: str = "") -> AioTimer:
        return AioTimer(self, callback, label)

    def create_cpu(self, name: str, cost_model: Any = None) -> AioCpu:
        # The modeled cost tables are meaningless on real hardware; the
        # parameter is accepted (same construction path as the sim) and
        # dropped.
        return AioCpu(self, name)

    def register(self, node: Any) -> None:
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id: {node.node_id!r}")
        if self._loop is not None:
            raise RuntimeError("nodes must be registered before run() starts")
        self._nodes[node.node_id] = node
        node.attach(self.transport)

    def call_later(self, delay: float, action: Callable[[], None], label: str = "") -> AioTimer:
        timer = AioTimer(self, action, label)
        timer.start(delay)
        return timer

    def defer(self, delay: float, action: Callable[..., None], args: tuple = ()) -> None:
        self._running_loop().call_later(delay, partial(action, *args))

    # -- loop plumbing -----------------------------------------------------

    def _running_loop(self) -> asyncio.AbstractEventLoop:
        loop = self._loop
        if loop is None:
            raise RuntimeError(
                "the aio runtime's loop is not running; timers, sends, and "
                "deferred calls only work inside run() (arm them from kickoff)"
            )
        return loop

    def _spawn(self, coro) -> asyncio.Task:
        task = self._running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    def _enqueue_send(self, src: str, dst: str, payload: Any) -> None:
        channel = self._channels.get((src, dst))
        if channel is None:
            channel = self._channels[src, dst] = _Outbound(self, src, dst)
        last, frame = self._encoded
        if payload is not last:
            # A multicast hands the same object to every destination in one
            # CPU item; it is encoded for the first and reused for the rest.
            blob = encode_envelope(payload)
            frame = _U32.pack(len(blob)) + blob
            self._encoded = (payload, frame)
        channel.pending.append(frame)
        self.frames_sent += 1
        if not self._dirty:
            self._running_loop().call_soon(self._flush)
        self._dirty[channel] = None

    def _flush(self) -> None:
        """Once per tick: one write per channel that was sent on since the last flush."""
        self._encoded = (None, b"")
        dirty = self._dirty
        for channel in dirty:
            channel.flush()
        dirty.clear()

    def _install_endpoints(self, ports: Mapping[str, int]) -> None:
        """Complete the destination table; channels that were waiting for it dial."""
        self._ports.update(ports)
        self._endpoints_ready = True
        for channel in self._channels.values():
            channel.flush()

    # -- lifecycle ---------------------------------------------------------

    def run(
        self,
        kickoff: Optional[Callable[[], None]] = None,
        until: Optional[Callable[[], bool]] = None,
        timeout: float = 10.0,
    ) -> bool:
        """Serve the cluster until ``until()`` holds or ``timeout`` elapses.

        Returns ``True`` when the ``until`` predicate was met (always
        ``True`` with no predicate: the run simply lasted ``timeout``
        seconds).  Always shuts down cleanly: every task is cancelled and
        awaited, every connection and listener closed.
        """
        return asyncio.run(self._main(kickoff, until, timeout))

    async def _main(
        self,
        kickoff: Optional[Callable[[], None]],
        until: Optional[Callable[[], bool]],
        timeout: float,
    ) -> bool:
        try:
            await self._listen()
            self._install_endpoints({})
            if kickoff is not None:
                kickoff()
            deadline = self.now + timeout
            met = until is None
            while self.now < deadline:
                if until is not None and until():
                    met = True
                    break
                await asyncio.sleep(UNTIL_POLL_S)
            return met
        finally:
            await self._shutdown()

    async def _listen(self) -> None:
        """Adopt the running loop and open one listener per registered node."""
        loop = self._loop = asyncio.get_running_loop()
        for node_id, node in sorted(self._nodes.items()):
            server = await loop.create_server(partial(_Inbound, self, node), self._host, 0)
            self._servers.append(server)
            self._ports[node_id] = server.sockets[0].getsockname()[1]

    async def _shutdown(self) -> None:
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        for connection in [*self._channels.values(), *self._inbound]:
            if connection.transport is not None:
                connection.transport.abort()
        for server in self._servers:
            server.close()
        if self._servers:
            # Also gives the aborted transports the loop turn in which their
            # sockets are actually closed.
            await asyncio.gather(
                *(server.wait_closed() for server in self._servers),
                return_exceptions=True,
            )
        self._servers.clear()
        self._channels.clear()
        self._dirty.clear()
        self._inbound.clear()
        self._ports.clear()
        self._endpoints_ready = False
        self._loop = None


__all__ = [
    "AioCpu",
    "AioRuntime",
    "AioTimer",
    "AioTransport",
    "decode_envelope",
    "encode_envelope",
]
