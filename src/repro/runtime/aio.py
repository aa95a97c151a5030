"""Real-network runtime backend: asyncio tasks over loopback TCP.

Every registered node gets its own TCP server on ``127.0.0.1`` (ephemeral
port) and a serial CPU worker task.  Messages travel as real bytes: every
protocol type ships its binary wire frame (:mod:`repro.wire`) inside a
small envelope that also carries what rides *beside* a signed frame — the
detached signature, piggybacked request/batch payloads with their client
signatures, and a state-transfer snapshot.  A frame that does not decode is
dropped and counted (``frames_rejected``); the channel stays up.

Sender identity is authenticated per connection, mirroring the paper's
pairwise authenticated channels: each (src, dst) pair uses a dedicated
connection whose first bytes declare the sender id, and every message
arriving on it is attributed to that id.  Spoofing replica *j* would
require writing on *j*'s connection.

Differences from the sim backend, by design:

* time is the real monotonic clock (seconds since runtime construction);
* timers are ``loop.call_later`` handles with the exact semantics of
  :class:`repro.runtime.api.TimerHandle` (pinned by the shared timer
  tests);
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
from typing import Any, Callable, Dict, Optional, Tuple

from repro.crypto.digest import digest_bytes
from repro.crypto.signatures import Signature
from repro.runtime.api import Cpu, Runtime, TimerHandle, Transport
from repro.smr.messages import ProtocolMessage
from repro.wire.codec import decode as wire_decode
from repro.wire.primitives import Reader, pack_value

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")

#: Largest envelope a peer may announce; a longer length prefix closes the
#: connection.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: First byte of every message blob; a blob of any other kind is rejected.
_KIND_FRAME = b"\x01"

#: Kinds of the items that ride beside a frame (``message.detached()``).
_ITEM_NONE = b"\x00"
_ITEM_MESSAGE = b"\x01"  # a piggybacked request / batch: its own frame + items
_ITEM_SIGNATURE = b"\x02"  # an inner client signature
_ITEM_VALUE = b"\x03"  # a plain value (state-transfer snapshot)


# -- envelope codec ----------------------------------------------------------


def _pack_str(out: list, value: str) -> None:
    raw = value.encode("utf-8")
    out.append(_U16.pack(len(raw)))
    out.append(raw)


def _pack_signature(out: list, signature: Optional[Signature]) -> None:
    if signature is None:
        out.append(b"\x00")
        return
    out.append(b"\x01")
    _pack_str(out, signature.signer_id)
    _pack_str(out, signature.payload_digest)
    _pack_str(out, signature.tag)


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


class _Cursor:
    """Tiny sequential reader over an envelope blob."""

    __slots__ = ("buf", "off")

    def __init__(self, buf: bytes, off: int = 0) -> None:
        self.buf = buf
        self.off = off

    def take(self, count: int) -> bytes:
        off = self.off
        end = off + count
        if end > len(self.buf):
            raise ValueError("truncated envelope")
        self.off = end
        return self.buf[off:end]

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return _U16.unpack(self.take(2))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def string(self) -> str:
        return self.take(self.u16()).decode("utf-8")

    def signature(self) -> Optional[Signature]:
        if self.u8() == 0:
            return None
        return Signature(
            signer_id=self.string(),
            payload_digest=self.string(),
            tag=self.string(),
        )


def _read_message(cursor: _Cursor, nested: bool = False) -> Any:
    frame = cursor.take(cursor.u32())
    message = wire_decode(frame)
    signature = cursor.signature()
    count = cursor.u16()
    expected = len(message.detached())
    if count != expected:
        raise ValueError(
            f"{type(message).__name__} carries {count} detached items, expected {expected}"
        )
    items = []
    for _ in range(count):
        kind = cursor.take(1)
        if kind == _ITEM_SIGNATURE:
            items.append(cursor.signature())
        elif kind == _ITEM_NONE:
            items.append(None)
        elif kind == _ITEM_MESSAGE and not nested:
            items.append(_read_message(cursor, nested=True))
        elif kind == _ITEM_VALUE:
            value = Reader(cursor.take(cursor.u32()))
            items.append(value.value())
            if not value.exhausted():
                raise ValueError("trailing bytes after a detached value")
        else:
            raise ValueError(f"unknown or misplaced detached item kind: {kind!r}")
    message.attach(iter(items))
    # The receiver's digest (what signature verification compares against)
    # must be computed over exactly the bytes the sender signed, so the
    # source frame becomes the message's frozen form (and saves a re-encode).
    message.seed_wire_caches(frame, digest_bytes(frame))
    message.__dict__["signature"] = signature  # not content: no cache to invalidate
    return message


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
    cursor = _Cursor(blob, 1)
    message = _read_message(cursor)
    if cursor.off != len(blob):
        raise ValueError("trailing bytes after envelope")
    return message


# -- timers ------------------------------------------------------------------


class AioTimer(TimerHandle):
    """A restartable timer backed by ``loop.call_later``.

    Arming requires the runtime's event loop to be running (timers are
    created unarmed in node constructors and armed from within ``run()``),
    matching the sim timer's contract exactly otherwise: idempotent stop,
    disarm-before-callback on fire, restart == start.
    """

    __slots__ = ("_runtime", "_callback", "_label", "_handle")

    def __init__(
        self, runtime: "AioRuntime", callback: Callable[[], None], label: str = ""
    ) -> None:
        self._runtime = runtime
        self._callback = callback
        self._label = label
        self._handle: Optional[asyncio.TimerHandle] = None

    @property
    def label(self) -> str:
        return self._label

    @property
    def active(self) -> bool:
        return self._handle is not None

    def start(self, delay: float) -> None:
        handle = self._handle
        if handle is not None:
            self._handle = None
            handle.cancel()
        loop = self._runtime._running_loop()
        self._handle = loop.call_later(delay, self._fire)

    def _fire(self) -> None:
        self._handle = None  # disarm before the callback so it may re-arm
        self._callback()

    def stop(self) -> None:
        handle = self._handle
        if handle is not None:
            self._handle = None
            handle.cancel()


# -- CPU ---------------------------------------------------------------------


class AioCpu(Cpu):
    """A node's serial executor: one drain task, measured (not modeled) time.

    The modeled size/signed/fanout classifications are accepted and
    ignored — on this backend serialization and HMAC work is *real*, so
    the CPU simply measures elapsed wall time per handled item into the
    same stats fields the sim CPU fills with modeled costs.
    """

    __slots__ = (
        "runtime", "name", "crashed", "_queue", "_worker", "_busy_time", "_items_processed"
    )

    def __init__(self, runtime: "AioRuntime", name: str) -> None:
        self.runtime = runtime
        self.name = name
        self.crashed = False
        self._queue: deque = deque()
        self._worker: Optional[asyncio.Task] = None
        self._busy_time = 0.0
        self._items_processed = 0

    def submit(self, cost: float, handler: Callable[..., None], args: tuple = ()) -> None:
        if self.crashed:
            return
        self._queue.append((handler, args))
        worker = self._worker
        if worker is None or worker.done():
            self._worker = self.runtime._spawn(self._drain())

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

    async def _drain(self) -> None:
        queue = self._queue
        perf_counter = time.perf_counter
        while queue:
            handler, args = queue.popleft()
            started = perf_counter()
            try:
                handler(*args)
            finally:
                self._busy_time += perf_counter() - started
                self._items_processed += 1
            # Yield per item: the CPU is serial but must not starve the
            # other nodes' tasks (or the socket readers feeding it).
            await asyncio.sleep(0)

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


# -- runtime -----------------------------------------------------------------


class AioRuntime(Runtime):
    """Runtime facade over an asyncio loopback-TCP cluster.

    Usage: construct, build nodes against it, ``register`` each one, then
    call :meth:`run` exactly once — it starts one TCP server per node,
    invokes ``kickoff`` inside the loop (this is where clients start and
    timers first arm), and polls ``until`` up to ``timeout`` real seconds
    before shutting every task and socket down.
    """

    def __init__(self, host: str = "127.0.0.1") -> None:
        self._host = host
        self._origin = time.monotonic()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._nodes: Dict[str, Any] = {}
        self._ports: Dict[str, int] = {}
        self._servers: list = []
        self._channels: Dict[Tuple[str, str], asyncio.Queue] = {}
        self._tasks: set = set()
        self.transport = AioTransport(self)
        self.messages_delivered = 0
        self.bytes_delivered = 0
        self.frames_rejected = 0

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
        key = (src, dst)
        channel = self._channels.get(key)
        if channel is None:
            channel = self._channels[key] = asyncio.Queue()
            self._spawn(self._pump(src, dst, channel))
        channel.put_nowait(encode_envelope(payload))

    async def _pump(self, src: str, dst: str, channel: asyncio.Queue) -> None:
        """One (src, dst) ordered channel: lazy connect, then write frames."""
        port = self._ports.get(dst)
        if port is None:
            return  # unknown destination: dropped, mirroring the sim network
        try:
            _, writer = await asyncio.open_connection(self._host, port)
        except OSError:
            return
        try:
            hello = src.encode("utf-8")
            writer.write(_U16.pack(len(hello)) + hello)
            while True:
                blob = await channel.get()
                writer.write(_U32.pack(len(blob)))
                writer.write(blob)
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()

    async def _serve(
        self, node: Any, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Per-connection read loop feeding one node's ``deliver`` entry point."""
        try:
            (hello_len,) = _U16.unpack(await reader.readexactly(2))
            sender = (await reader.readexactly(hello_len)).decode("utf-8")
            while True:
                (blob_len,) = _U32.unpack(await reader.readexactly(4))
                if blob_len > MAX_FRAME_BYTES:
                    # Not buffered, so the stream cannot be resynchronised.
                    self.frames_rejected += 1
                    break
                blob = await reader.readexactly(blob_len)
                try:
                    message = decode_envelope(blob)
                except ValueError:
                    # Frames are length prefixed: drop this one, keep reading.
                    self.frames_rejected += 1
                    continue
                self.messages_delivered += 1
                self.bytes_delivered += len(blob)
                node.deliver(sender, message, len(blob))
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass
        finally:
            writer.close()

    # -- lifecycle ---------------------------------------------------------

    def run(
        self,
        kickoff: Optional[Callable[[], None]] = None,
        until: Optional[Callable[[], bool]] = None,
        timeout: float = 10.0,
        poll: float = 0.002,
    ) -> bool:
        """Serve the cluster until ``until()`` holds or ``timeout`` elapses.

        Returns ``True`` when the ``until`` predicate was met (always
        ``True`` with no predicate: the run simply lasted ``timeout``
        seconds).  Always shuts down cleanly: every worker, pump, and
        server task is cancelled and awaited, every socket closed.
        """
        return asyncio.run(self._main(kickoff, until, timeout, poll))

    async def _main(
        self,
        kickoff: Optional[Callable[[], None]],
        until: Optional[Callable[[], bool]],
        timeout: float,
        poll: float,
    ) -> bool:
        self._loop = asyncio.get_running_loop()
        try:
            for node_id, node in sorted(self._nodes.items()):
                server = await asyncio.start_server(
                    partial(self._serve, node), self._host, 0
                )
                self._servers.append(server)
                self._ports[node_id] = server.sockets[0].getsockname()[1]
            if kickoff is not None:
                kickoff()
            deadline = self.now + timeout
            met = until is None
            while self.now < deadline:
                if until is not None and until():
                    met = True
                    break
                await asyncio.sleep(poll)
            return met
        finally:
            for task in list(self._tasks):
                task.cancel()
            if self._tasks:
                await asyncio.gather(*self._tasks, return_exceptions=True)
            for server in self._servers:
                server.close()
            if self._servers:
                await asyncio.gather(
                    *(server.wait_closed() for server in self._servers),
                    return_exceptions=True,
                )
            self._servers.clear()
            self._channels.clear()
            self._ports.clear()
            self._loop = None


__all__ = [
    "AioCpu",
    "AioRuntime",
    "AioTimer",
    "AioTransport",
    "decode_envelope",
    "encode_envelope",
]
