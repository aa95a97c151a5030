"""Real-network runtime backend: asyncio Protocol callbacks over loopback TCP.

Every registered node gets its own TCP listener on ``127.0.0.1`` (ephemeral
port) and a serial CPU.  Messages travel as real bytes: every protocol type
ships its binary wire frame (:mod:`repro.wire`) inside a small envelope that
also carries what rides *beside* a signed frame — the detached signature,
piggybacked request/batch payloads with their client signatures, and a
state-transfer snapshot.

There is no task and no queue per message or per connection; the data path is
plain callbacks, and one turn of the event loop (a *tick*) does, in order:

1. **read** — each readable socket is read into the runtime's one receive
   buffer (``RECV_BUFFER_BYTES``; nothing of that size is allocated per read)
   and :class:`_Inbound` gets a right-sized copy in one ``data_received`` call;
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
   encodes its envelope once per variant (piggybacked payloads in full, or
   referenced), not once per destination.

Sender identity is authenticated per connection, mirroring the paper's
pairwise authenticated channels: each (src, dst) pair uses a dedicated
connection whose first bytes declare the sender id, and every message
arriving on it is attributed to that id.  Spoofing replica *j* would
require writing on *j*'s connection.  A channel dials lazily on its first
flush and buffers until the connection is up; when a connection is lost the
next send dials again (what the kernel had not delivered is lost, as on any
TCP reset — the protocols retransmit), and a dial that fails, or whose
connection is lost sooner than the wait it ended, makes the next one wait,
``REDIAL_DELAY_S`` doubling up to ``REDIAL_MAX_DELAY_S``.

Two things are state of a *connection* and die with it.  The sender id, and
a **payload table** (:class:`_PayloadTable`): a request or batch piggybacked
on an envelope that went over this connection in full can afterwards ride as
its 32-byte frame digest (Lion's ``COMMIT`` after its ``PREPARE``, a
retransmission, a new view's re-proposals), and the receiver hands the
handler the object it decoded the first time.  Both ends derive the table
from the stream alone, by one rule.  A reference that resolves to nothing
therefore means a peer that lies or has lost step; the listener hangs up as
on an oversized length prefix, and the sender's next connection starts with
an empty table at both ends.  No node ever sees an object another node's
connection decoded.

Differences from the sim backend, by design:

* time is the real monotonic clock (seconds since runtime construction);
* a timer is a deadline plus at most one ``loop.call_at`` wake-up, with the
  exact semantics of :class:`repro.runtime.api.TimerHandle` (pinned by the
  shared timer tests).  Pushing a timer back — what every commit does to its
  replica's request timer — only moves the deadline, and stopping one only
  clears it; neither touches the loop's heap (see :class:`AioTimer`).  The
  loop comes from :func:`new_event_loop`, whose selector ends a timed wait
  when it was asked to: a stock asyncio loop rounds each one up to a whole
  millisecond, which made every timer 0.7 ms late on average;
* the CPU ignores *modeled* costs and measures real elapsed time into
  the same ``busy_time`` / ``items_processed`` stats fields;
* delivery order between different sender pairs is whatever TCP and the
  event loop produce — which is exactly why the conformance harness
  (:mod:`repro.runtime.conformance`) checks that committed ledgers agree
  with the simulator anyway.
"""

from __future__ import annotations

import asyncio
import logging
import select
import selectors
import struct
import time
from collections import Counter, OrderedDict, deque
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.crypto.digest import digest_bytes, digest_of
from repro.crypto.signatures import Signature
from repro.runtime.api import Cpu, Runtime, TimerHandle, Transport
from repro.smr.messages import ProtocolMessage
from repro.wire.codec import decode as wire_decode
from repro.wire.primitives import pack_value, read_u16, read_value, read_window, truncated

_log = logging.getLogger(__name__)

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

#: The one buffer every connection of a runtime receives into.  The size is
#: what asyncio's own transport asks ``recv`` for; left to allocate it per
#: read, the runtime's CPU cost followed glibc's trimming of the heap top.
RECV_BUFFER_BYTES = 256 * 1024

#: Bounds of a connection's payload table (:class:`_PayloadTable`): how many
#: piggybacked payloads, and how many bytes of their frames, stay referable.
PAYLOAD_TABLE_ENTRIES = 256
PAYLOAD_TABLE_BYTES = 1024 * 1024

#: A channel whose dial failed waits this long before the next one, doubling
#: up to the cap; what is sent meanwhile is dropped.
REDIAL_DELAY_S = 0.01
REDIAL_MAX_DELAY_S = 1.0

#: First byte of every message blob; a blob of any other kind is rejected.
_KIND_FRAME = b"\x01"

#: Kinds of the items that ride beside a frame (``message.detached()``).
_ITEM_NONE = b"\x00"
_ITEM_MESSAGE = b"\x01"  # a piggybacked request / batch: its own frame + items
_ITEM_SIGNATURE = b"\x02"  # an inner client signature
_ITEM_VALUE = b"\x03"  # a plain value (state-transfer snapshot)
_ITEM_REF = b"\x04"  # a piggybacked payload this connection already carried: its digest

#: Forms of a signature: absent, spelled out, or the 32 tag bytes alone when
#: signer and digest are what the receiver derives anyway (``_pack_signature``).
_SIG_NONE = b"\x00"
_SIG_EXPLICIT = b"\x01"
_SIG_COMPACT = b"\x02"


class UnresolvedReference(ValueError):
    """An ``_ITEM_REF`` names no payload of this connection: the peer lies or is out of step."""


class _PayloadTable:
    """What one connection has carried in full: frame digest -> message.

    Both ends apply the same rule to the same ordered stream — insert every
    piggybacked payload of an envelope that went in full, oldest out first
    past either bound — so they hold the same keys without ever exchanging
    them.  The sender looks a payload *object* up before it ships a
    reference; the receiver resolves the reference to the object it decoded.
    """

    __slots__ = ("entries", "frame_bytes")

    def __init__(self) -> None:
        self.entries: "OrderedDict[str, Tuple[Any, int]]" = OrderedDict()
        self.frame_bytes = 0

    def get(self, payload_digest: str) -> Any:
        entry = self.entries.get(payload_digest)
        return None if entry is None else entry[0]

    def put(self, payload_digest: str, message: Any, size: int) -> None:
        entries = self.entries
        replaced = entries.pop(payload_digest, None)
        if replaced is not None:
            self.frame_bytes -= replaced[1]
        entries[payload_digest] = (message, size)
        self.frame_bytes += size
        while len(entries) > PAYLOAD_TABLE_ENTRIES or self.frame_bytes > PAYLOAD_TABLE_BYTES:
            self.frame_bytes -= entries.popitem(last=False)[1][1]

    def clear(self) -> None:
        self.entries.clear()
        self.frame_bytes = 0


# -- envelope codec ----------------------------------------------------------


def _pack_signature(
    out: list, signature: Optional[Signature], signer: Optional[str] = None, beside: Any = None
) -> None:
    """``0`` | ``2, 32 tag bytes`` | ``1, lengths, signer, digest, tag``.

    The compact form is for the signature the receiver can rebuild from what
    it holds anyway: made by ``signer`` (whom the connection, or the
    piggybacked request itself, names) over the digest of the frame it rides
    ``beside``, with a canonical hex tag.  Any other signature — relayed,
    forged, over another digest — is spelled out and meets the same checks
    as ever, so the form never decides what verifies.
    """
    if signature is None:
        out.append(_SIG_NONE)
        return
    tag = signature.tag
    if (
        signature.signer_id == signer
        and len(tag) == 64
        and signature.payload_digest == digest_of(beside)
    ):
        try:
            raw = bytes.fromhex(tag)
        except ValueError:
            raw = b""
        if raw.hex() == tag:  # lower case, no white space: ``pack_digest``'s rule, not its cost
            out.append(_SIG_COMPACT)
            out.append(raw)
            return
    signer_id = signature.signer_id.encode("utf-8")
    payload_digest = signature.payload_digest.encode("utf-8")
    tag = tag.encode("utf-8")
    out += (
        _SIGNATURE_HEAD.pack(_SIG_EXPLICIT[0], len(signer_id), len(payload_digest), len(tag)),
        signer_id,
        payload_digest,
        tag,
    )


def _pack_message(out: list, message: Any, signer: Optional[str], referenced: bool) -> None:
    """``frame | signature | item count u16 | item*`` for one message."""
    frame = message.wire_slice()
    out.append(_U32.pack(len(frame)))
    out.append(frame)
    _pack_signature(out, message.signature, signer, message)
    items = message.detached()
    out.append(_U16.pack(len(items)))
    for item in items:
        if item is None:
            out.append(_ITEM_NONE)
        elif type(item) is Signature:
            out.append(_ITEM_SIGNATURE)
            _pack_signature(out, item)
        elif isinstance(item, ProtocolMessage):
            if referenced:
                out.append(_ITEM_REF)
                out.append(bytes.fromhex(digest_of(item)))
            else:
                out.append(_ITEM_MESSAGE)
                _pack_message(out, item, getattr(item, "client_id", None), False)
        else:
            value = pack_value(item)
            out.append(_ITEM_VALUE)
            out.append(_U32.pack(len(value)))
            out.append(value)


def _read_signature(
    buf: bytes, off: int, end: int, signer: Optional[str] = None, frame_digest: str = ""
) -> Tuple[Optional[Signature], int]:
    if off >= end:
        raise truncated(1, off, end)
    form = buf[off : off + 1]
    if form == _SIG_NONE:
        return None, off + 1
    if form == _SIG_COMPACT and signer is not None:
        stop = off + 33
        if stop > end:
            raise truncated(32, off + 1, end)
        return Signature(signer, frame_digest, buf[off + 1 : stop].hex()), stop
    if form != _SIG_EXPLICIT:
        raise ValueError(f"unknown or misplaced signature form: {form!r}")
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


def _read_message(
    buf: bytes,
    off: int,
    end: int,
    sender: Optional[str],
    table: Optional[_PayloadTable],
    carried: list,
    nested: bool = False,
) -> Tuple[Any, int]:
    # The one copy of the frame: decoding a slice confines every length
    # inside it to the frame, and the slice is what gets digested and kept.
    off, stop = read_window(buf, off, end)
    frame = buf[off:stop]
    message = wire_decode(frame)
    # The receiver's digest (what signature verification compares against)
    # must be computed over exactly the bytes the sender signed.
    frame_digest = digest_bytes(frame)
    if nested:
        sender = getattr(message, "client_id", None)
    signature, off = _read_signature(buf, stop, end, sender, frame_digest)
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
                item, off = _read_message(buf, off, end, None, table, carried, nested=True)
            elif kind == _ITEM_REF and not nested:
                stop = off + 32
                if stop > end:
                    raise truncated(32, off, end)
                item = None if table is None else table.get(buf[off:stop].hex())
                if item is None:
                    raise UnresolvedReference(f"no payload {buf[off:stop].hex()} went this way")
                off = stop
            elif kind == _ITEM_VALUE:
                off, stop = read_window(buf, off, end)
                item, off = read_value(buf, off, stop)
                if off != stop:
                    raise ValueError("trailing bytes after a detached value")
            else:
                raise ValueError(f"unknown or misplaced detached item kind: {kind!r}")
            items.append(item)
        message.attach(iter(items))
    # A top-level message keeps its frame as its frozen form (saves a
    # re-encode on relay).  A piggybacked request or batch is released at
    # once, keeping its digest and frame length: its frame duplicates the
    # payloads just decoded from it, every replica logs every batch, and it
    # is re-sent only on a view change, where ``wire_slice()`` rebuilds the
    # same bytes from the fields (the codec decodes only frames it encodes).
    message.seed_wire_caches(frame, frame_digest)
    message.__dict__["signature"] = signature  # not content: no cache to invalidate
    if signature is not None:  # signed iff its class signs by default or it carries one
        message.__dict__["signed"] = True
    if nested:
        message.release_wire_frames()
        carried.append((frame_digest, message, len(frame)))
    return message, off


def encode_envelope(message: Any, sender: Optional[str] = None, referenced: bool = False) -> bytes:
    """Serialize one protocol message (with signature and detached parts) to bytes.

    ``sender`` is who the connection says is speaking (a signature of theirs
    may go compact); ``referenced`` ships every piggybacked payload as its
    digest, for a connection whose table holds them all.
    """
    out: list = [_KIND_FRAME]
    _pack_message(out, message, sender, referenced)
    return b"".join(out)


def decode_envelope(
    blob: bytes, sender: Optional[str] = None, table: Optional[_PayloadTable] = None
) -> Any:
    """Rebuild the protocol message a peer sent, signatures reattached.

    Raises ``ValueError`` (``WireDecodeError`` and :class:`UnresolvedReference`
    included) on anything that is not a well-formed envelope around
    well-formed frames; only an envelope that decodes adds to ``table``.
    """
    if blob[:1] != _KIND_FRAME:
        raise ValueError(f"unknown envelope kind: {blob[:1]!r}")
    end = len(blob)
    carried: list = []
    message, off = _read_message(blob, 1, end, sender, table, carried)
    if off != end:
        raise ValueError("trailing bytes after envelope")
    if table is not None:
        for entry in carried:
            table.put(*entry)
    return message


# -- event loop and timers ---------------------------------------------------

if hasattr(selectors, "EpollSelector"):

    class _TimelySelector(selectors.EpollSelector):
        """An ``EpollSelector`` whose timed wait ends when asked, not up to 1 ms later.

        ``epoll_wait`` counts in whole milliseconds and the stock selector
        rounds every timeout up to the next one.  This one waits the whole
        milliseconds in ``epoll_wait`` and what is then left in ``select(2)``
        on the epoll descriptor itself, which is readable exactly when
        ``epoll_wait`` has something to return and which counts in
        microseconds.  A wait with no timeout or a zero one (every busy tick)
        is the stock call.
        """

        _FD_SETSIZE = 1024  # ``select(2)`` cannot name a descriptor from here up

        def select(self, timeout=None):
            if timeout is None or timeout <= 0 or self.fileno() >= self._FD_SETSIZE:
                return super().select(timeout)
            whole_ms = int(timeout * 1e3)
            if whole_ms:
                due = time.monotonic() + timeout
                # The stock rounding makes exactly ``whole_ms`` of this; ready
                # I/O ends the wait at once, as ever.
                ready = super().select((whole_ms - 0.5) * 1e-3)
                if ready:
                    return ready
                timeout = due - time.monotonic()  # less what that wait ran over
            if timeout > 0 and select.select((self.fileno(),), (), (), timeout)[0]:
                return super().select(0)
            return []

else:  # no epoll, no rounding to undo
    _TimelySelector = None


def new_event_loop() -> asyncio.AbstractEventLoop:
    """The loop both TCP backends run on: the platform's, with timers that fire on time."""
    if _TimelySelector is None:
        return asyncio.new_event_loop()
    return asyncio.SelectorEventLoop(_TimelySelector())


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
        if delay < 0:
            raise ValueError(f"cannot schedule an event in the past: delay={delay}")
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

    It only queues what a node hands it: on this backend serialization and
    HMAC work is *real*, so the CPU classifies nothing and measures elapsed
    wall time per slice into the same stats fields the sim CPU fills with
    modeled costs.  A send's handler gets size 0 (the runtime counts the
    real bytes it frames).
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

    def submit_send(self, payload: Any, handler: Callable[..., None], args: tuple = ()) -> None:
        self.submit(0.0, handler, (*args, 0))

    def submit_receive(
        self, payload: Any, size: int, handler: Callable[..., None], args: tuple = ()
    ) -> None:
        self.submit(0.0, handler, args)

    def submit_multicast(
        self, payload: Any, fanout: int, handler: Callable[..., None], args: tuple = ()
    ) -> None:
        self.submit(0.0, handler, (*args, 0))

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

    __slots__ = (
        "_runtime", "_hello", "_src", "_dst", "_dialing", "_retry_delay", "_retry_at",
        "pending", "shipped", "transport",
    )

    def __init__(self, runtime: "AioRuntime", src: str, dst: str) -> None:
        sender = src.encode("utf-8")
        self._runtime = runtime
        self._hello = _U16.pack(len(sender)) + sender
        self._src, self._dst = src, dst
        self._dialing = False
        self._retry_delay = 0.0  # what the last failed dial made the next one wait
        # Loop time before which nothing dials or, while a connection is up,
        # before which losing it counts as a failed dial.
        self._retry_at = 0.0
        self.pending: List[bytes] = []  # length-prefixed envelopes, oldest first
        # What ``pending`` and the connection it is bound for carry in full;
        # emptied whenever frames encoded against it are given up.
        self.shipped = _PayloadTable()
        self.transport: Optional[asyncio.Transport] = None

    def carry(self, payloads: List[Tuple[str, Any, int]]) -> bool:
        """Whether the next envelope may name these payloads by digest alone.

        It may when every one of these very objects already went in full on
        this connection; otherwise they go in full now and are recorded.  A
        payload is ``(frame digest, message, frame length)``.
        """
        entries = self.shipped.entries
        for payload_digest, item, _ in payloads:
            entry = entries.get(payload_digest)
            if entry is None or entry[0] is not item:
                break
        else:
            return True
        put = self.shipped.put
        for payload in payloads:
            put(*payload)
        return False

    def _give_up(self) -> None:
        self.pending.clear()
        self.shipped.clear()

    def flush(self) -> None:
        """Write everything pending at once, or dial if there is no connection."""
        transport = self.transport
        if transport is None:
            runtime = self._runtime
            # Until the destination table is complete (a proc worker waiting
            # for the supervisor's broadcast) frames stay buffered.
            if runtime._endpoints_ready and not self._dialing:
                if runtime._running_loop().time() < self._retry_at:
                    self._give_up()  # still unreachable: dropped, as below
                else:
                    self._dialing = True
                    runtime._spawn(self._dial())
        elif self.pending:
            transport.write(b"".join(self.pending))
            self.pending.clear()
            self._runtime.writes_issued += 1

    async def _dial(self) -> None:
        runtime = self._runtime
        loop = runtime._running_loop()
        connected, error = False, None
        try:
            port = runtime._ports.get(self._dst)
            if port is not None:
                await loop.create_connection(lambda: self, runtime._host, port)
                connected = True  # what becomes of it is ``connection_lost``'s to count
        except OSError as failure:
            error = failure
        finally:
            self._dialing = False
            if not connected:
                # Unknown or unreachable destination: dropped, mirroring the
                # sim network.
                self._give_up()
                self._back_off(loop)
                if error is not None:
                    _log.info(
                        "%s -> %s: dial failed (%s); next dial in %.3f s",
                        self._src, self._dst, error, self._retry_delay,
                    )

    def _back_off(self, loop: asyncio.AbstractEventLoop) -> None:
        """A later send dials again, after a wait that doubles with every failure in a row."""
        delay = self._retry_delay = min(
            max(REDIAL_DELAY_S, 2 * self._retry_delay), REDIAL_MAX_DELAY_S
        )
        self._retry_at = loop.time() + delay

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self._retry_at = self._runtime._running_loop().time() + max(
            REDIAL_DELAY_S, self._retry_delay
        )
        self.pending.insert(0, self._hello)
        self.flush()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.transport = None
        self._give_up()  # the next connection starts with an empty table at both ends
        loop = self._runtime._running_loop()
        if loop.time() < self._retry_at:
            self._back_off(loop)  # accepted and dropped: a failed dial by another name
        else:
            self._retry_delay = self._retry_at = 0.0


class _Inbound(asyncio.BufferedProtocol):
    """One accepted connection: hello, then length-prefixed envelopes for one node."""

    __slots__ = ("_runtime", "_node", "_sender", "_partial", "_need", "carried", "transport")

    def __init__(self, runtime: "AioRuntime", node: Any) -> None:
        self._runtime = runtime
        self._node = node
        self._sender: Optional[str] = None
        self._partial = bytearray()  # an incomplete hello or frame, kept between reads
        self._need = 0  # bytes ``_partial`` must reach before parsing resumes
        self.carried = _PayloadTable()  # the twin of the dialling side's ``shipped``
        self.transport: Optional[asyncio.Transport] = None

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self._runtime._inbound.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.transport = None
        self._runtime._inbound.discard(self)

    def _hang_up(self, reason: str) -> None:
        _log.warning("%s: hung up on sender %r: %s", self._node.node_id, self._sender, reason)
        self._runtime.frames_rejected += 1
        self.transport.close()

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._runtime._recv_buffer

    def buffer_updated(self, nbytes: int) -> None:
        # The loop is single-threaded and the parser keeps nothing of the
        # buffer (it copies what it retains), so every connection shares it.
        self.data_received(bytes(self._runtime._recv_buffer[:nbytes]))

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
                    return self._hang_up("undecodable hello")
                off = need
        if sender is not None:
            deliver = self._node.deliver
            carried = self.carried
            while True:
                need = 4
                if end - off < 4:
                    break
                (length,) = _U32.unpack_from(data, off)
                if length > MAX_FRAME_BYTES:
                    # Not buffered, so the stream cannot be resynchronised.
                    return self._hang_up("oversized length prefix")
                need += length
                if end - off < need:
                    break
                blob = data[off + 4 : off + need]
                off += need
                try:
                    message = decode_envelope(blob, sender, carried)
                except UnresolvedReference:
                    # The two tables disagree and every later reference may:
                    # only a new connection puts them back in step.
                    return self._hang_up("unresolved payload reference")
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

_NOTHING_ENCODED: tuple = (None, None, (), ())  # ``AioRuntime._encoded`` between ticks


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
        self._recv_buffer = memoryview(bytearray(RECV_BUFFER_BYTES))
        # The last payload sent this tick and by whom, the payloads it
        # piggybacks, and its frame with them [in full, as references].
        self._encoded: tuple = _NOTHING_ENCODED
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

    def create_cpu(self, name: str) -> AioCpu:
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

    # -- loop plumbing -----------------------------------------------------

    def _running_loop(self) -> asyncio.AbstractEventLoop:
        loop = self._loop
        if loop is None:
            raise RuntimeError(
                "the aio runtime's loop is not running; timers and sends "
                "only work inside run() (arm them from kickoff)"
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
        last, last_src, payloads, frames = self._encoded
        if payload is not last or src != last_src:
            items = payload.detached()
            payloads = items and [  # most messages carry nothing beside their frame
                (digest_of(item), item, item.wire_length())
                for item in items
                if isinstance(item, ProtocolMessage)
            ]
            frames = [None, None]
            self._encoded = (payload, src, payloads, frames)
        referenced = bool(payloads) and channel.carry(payloads)
        frame = frames[referenced]
        if frame is None:
            # A multicast hands the same object to every destination in one
            # CPU item; each variant (payloads in full, payloads referenced)
            # is encoded for the first destination that needs it.
            blob = encode_envelope(payload, src, referenced)
            frame = frames[referenced] = _U32.pack(len(blob)) + blob
        channel.pending.append(frame)
        self.frames_sent += 1
        if not self._dirty:
            self._running_loop().call_soon(self._flush)
        self._dirty[channel] = None

    def _flush(self) -> None:
        """Once per tick: one write per channel that was sent on since the last flush."""
        self._encoded = _NOTHING_ENCODED
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
        if timeout < 0:
            raise ValueError(f"timeout must not be negative: {timeout}")
        with asyncio.Runner(loop_factory=new_event_loop) as runner:
            return runner.run(self._main(kickoff, until, timeout))

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
    "new_event_loop",
]
