"""Messages shared by every replication protocol in the repository.

Client-facing messages (``REQUEST`` and ``REPLY``) have the same structure in
SeeMoRe, Paxos, PBFT, and S-UpRight, SeeMoRe and the BFT baselines sign the
same ``CHECKPOINT``, Peacock and the BFT baselines run PBFT's agreement
(:mod:`repro.smr.pbft`) on the same ``PRE-PREPARE`` / ``PREPARE`` /
``COMMIT``, Lion and Paxos run the leader agreement (:mod:`repro.smr.leader`)
on the same ``PREPARE`` / ``ACCEPT`` / ``COMMIT`` (Paxos's unsigned), and
every protocol installs a view with the same ``NEW-VIEW`` and catches up with
the same state transfer, so they live here in the SMR substrate.  A message
only SeeMoRe sends (the informs, its view change and mode change) is defined
in :mod:`repro.core`, and the baselines' view change in :mod:`repro.baselines`.

Every message class is *declared once*: a wire ``TAG``, an ordered tuple of
typed ``FIELDS``, whether it is ``SIGNED`` by default (drives the CPU cost
model in :mod:`repro.net.costs`) and its modeled fixed ``SIZE`` in bytes
(drives bandwidth and hashing costs), plus ``SIZE_IF_SIGNED`` where one
class travels both signed and unsigned.  :class:`ProtocolMessage` derives the
rest at class creation through :func:`repro.wire.codec.derive`, which lists
the generated methods.
"""

from __future__ import annotations

import hashlib
from typing import Any, List, Optional, Sequence, Tuple

from repro.crypto.digest import (
    DIGEST_CACHE_ATTR,
    HAS_CACHE_FLAG,
    WIRE_SIZE_CACHE_ATTR,
    digest_of,
)
from repro.crypto.signatures import Signature, Signer, Verifier
from repro.smr.state_machine import Operation, result_digest
from repro.wire.codec import (
    ATTACHMENT,
    DIGEST,
    ENTRIES,
    I64,
    PAYLOAD,
    STR,
    Field,
    Kind,
    OpaqueResult,
    derive,
)
from repro.wire.primitives import (
    TAG_ACCEPT,
    TAG_BATCH,
    TAG_CHECKPOINT,
    TAG_COMMIT,
    TAG_PREPARE,
    TAG_PREPREPARE,
    TAG_PROXY_PREPARE,
    TAG_REPLY,
    TAG_REQUEST,
    WireDecodeError,
    read_digest,
    read_i64,
    read_str,
    read_u16,
    read_u32,
    read_value,
    read_window,
)

_HEADER_BYTES = 48
_SIGNATURE_BYTES = 64
_DIGEST_BYTES = 32
_SIGNED_BYTES = _HEADER_BYTES + _SIGNATURE_BYTES
_SIGNED_VOTE_BYTES = _SIGNED_BYTES + _DIGEST_BYTES

_WIRE_SLICE_ATTR = "_wire_slice"
_WIRE_LENGTH_ATTR = "_wire_length"
_RESULT_DIGEST_ATTR = "_result_digest"

#: Instance-``__dict__`` keys holding derived wire-form state.  They are
#: dropped by ``copy.copy`` (see ``ProtocolMessage.__copy__``) so a copied
#: message — the first step of every mutate-and-resend Byzantine twist —
#: always recomputes its frame, digest, and size.
_WIRE_CACHE_ATTRS = (
    DIGEST_CACHE_ATTR,
    _WIRE_SLICE_ATTR,
    _WIRE_LENGTH_ATTR,
    WIRE_SIZE_CACHE_ATTR,
    _RESULT_DIGEST_ATTR,
    HAS_CACHE_FLAG,
)


class FrameMismatch(ValueError):
    """A frame rebuilt from a message's fields does not hash to its kept digest."""


class ProtocolMessage:
    """Base of every protocol message: the declaration hooks and signing helpers.

    Messages freeze their *wire form*: the binary frame, its SHA-256 digest,
    and the serialized size estimate are each computed at most once per
    object lifetime and cached on the instance.  Because the simulator
    passes message objects by reference, every replica that touches a
    request, batch, or vote reuses the same cached forms instead of
    re-encoding per hop.  The cache invalidates two ways:

    * assigning any field other than ``signature`` (which no message ever
      covers with its own signing content) drops the cached forms, so a
      top-level in-place tamper is re-encoded and detected;
    * ``copy.copy`` drops every cached form, so the copy-then-mutate
      pattern of the Byzantine twists never inherits a digest the mutated
      content no longer matches — even when the mutation happens *inside* a
      nested payload, where ``__setattr__`` on the outer message cannot see
      it.

    The contract deliberately does NOT cover mutating a *container* held by
    an already-encoded message in place (``batch.requests[0] = ...``,
    ``reply.result["ok"] = ...``): no field assignment fires and the stale
    digest would still verify.  Messages are frozen by convention once
    built; attack helpers copy the message *and* rebuild the nested payload,
    which is also what a real attacker serializing fresh bytes would do.
    """

    #: The declaration a subclass states (see the module docstring).
    TAG: int
    FIELDS: Tuple[Field, ...]
    SIGNED: bool = True
    SIZE: int
    #: Extra modeled bytes only when the instance is signed.
    SIZE_IF_SIGNED: int = 0
    #: Name of the pinned :mod:`repro.wire.primitives` encoder, if any.
    ENCODER: Optional[str] = None
    #: Frame order of the signed fields where the default does not apply.
    FRAME: Optional[Tuple[str, ...]] = None

    signed: bool = False
    signature: Optional[Signature] = None

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        derive(cls)

    def wire_slice(self) -> bytes:
        """The frozen signed byte form of this message, cached.

        Invalidated with the other wire caches on content mutation or copy.
        Callers must treat the returned bytes as immutable.  A frame rebuilt
        after :meth:`release_wire_frames` must hash to the digest kept, or
        :class:`FrameMismatch` is raised.
        """
        instance_dict = self.__dict__
        cached = instance_dict.get(_WIRE_SLICE_ATTR)
        if cached is None:
            cached = self.signing_bytes()
            kept = instance_dict.get(DIGEST_CACHE_ATTR)
            if kept is not None and hashlib.sha256(cached).hexdigest() != kept:
                raise FrameMismatch(f"rebuilt {type(self).__name__} frame is not {kept}")
            instance_dict[_WIRE_SLICE_ATTR] = cached
            instance_dict[HAS_CACHE_FLAG] = True
        return cached

    def wire_length(self) -> int:
        """``len(wire_slice())``, read from what a released frame left behind."""
        length = self.__dict__.get(_WIRE_LENGTH_ATTR)
        return len(self.wire_slice()) if length is None else length

    def seed_wire_caches(
        self,
        frame: bytes,
        content_digest: str,
        wire_size: Optional[int] = None,
        result_digest: Optional[str] = None,
    ) -> None:
        """Install a frame built (or received) elsewhere as this message's frozen form.

        For the fused send paths of the client and the replicas and for the
        transport's decoder (the receiver's digest must cover exactly the
        bytes the sender signed).  ``frame`` must be what ``signing_bytes()``
        would return and ``content_digest`` its SHA-256.
        """
        instance_dict = self.__dict__
        instance_dict[_WIRE_SLICE_ATTR] = frame
        instance_dict[DIGEST_CACHE_ATTR] = content_digest
        if wire_size is not None:
            instance_dict[WIRE_SIZE_CACHE_ATTR] = wire_size
        if result_digest is not None:
            instance_dict[_RESULT_DIGEST_ATTR] = result_digest
        instance_dict[HAS_CACHE_FLAG] = True

    def release_wire_frames(self) -> None:
        """Drop this payload's frame (and its inner requests'), keeping what is read.

        For a slot payload once it executes: the digest, the modeled wire
        size and the frame length stay, so digests, signatures, sizes and the
        payload table are unchanged, and ``wire_slice()`` rebuilds the same
        bytes if a view change, state transfer or re-send needs them again.
        """
        instance_dict = self.__dict__
        frame = instance_dict.pop(_WIRE_SLICE_ATTR, None)
        if frame is not None:
            if DIGEST_CACHE_ATTR not in instance_dict:
                instance_dict[DIGEST_CACHE_ATTR] = hashlib.sha256(frame).hexdigest()
            instance_dict[_WIRE_LENGTH_ATTR] = len(frame)

    def __setattr__(self, name: str, value: Any) -> None:
        # Mutating any content field invalidates the frozen wire form.
        # ``signature`` is exempt: signatures cover content, never
        # themselves, and :meth:`sign` runs right after the digest is
        # cached — invalidating there would defeat the cache entirely.
        instance_dict = self.__dict__
        if HAS_CACHE_FLAG in instance_dict and name != "signature" and not name.startswith("_"):
            for attr in _WIRE_CACHE_ATTRS:
                if attr in instance_dict:
                    del instance_dict[attr]
        instance_dict[name] = value

    def __copy__(self) -> "ProtocolMessage":
        clone = self.__class__.__new__(self.__class__)
        clone.__dict__.update(self.__dict__)
        for attr in _WIRE_CACHE_ATTRS:
            clone.__dict__.pop(attr, None)
        return clone

    def sign(self, signer: Signer) -> "ProtocolMessage":
        """Attach a signature by ``signer`` over :meth:`wire_slice`."""
        # Inline cache probe: sign/verify are the two hottest digest users.
        content_digest = self.__dict__.get(DIGEST_CACHE_ATTR) or digest_of(self)
        self.signature = signer.sign_digest(content_digest)
        return self

    def verify(self, verifier: Verifier, expected_signer: Optional[str] = None) -> bool:
        """Check the attached signature (and optionally who produced it)."""
        if not self.signed:
            return True
        signature = self.signature
        if signature is None:
            return False
        if expected_signer is not None and signature.signer_id != expected_signer:
            return False
        content_digest = self.__dict__.get(DIGEST_CACHE_ATTR) or digest_of(self)
        return verifier.verify_digest(content_digest, signature)

    def cached_wire_size(self) -> int:
        """``wire_size()``, computed once and cached on the message."""
        cached = self.__dict__.get(WIRE_SIZE_CACHE_ATTR)
        if cached is None:
            cached = int(self.wire_size())
            self.__dict__[WIRE_SIZE_CACHE_ATTR] = cached
            self.__dict__[HAS_CACHE_FLAG] = True
        return cached


def _read_operation(buf: bytes, off: int, end: int) -> Tuple[Operation, int]:
    kind, off = read_str(buf, off, end)
    count, off = read_u16(buf, off, end)
    args = []
    for _ in range(count):
        arg, off = read_value(buf, off, end)
        args.append(arg)
    payload, off = read_str(buf, off, end)
    return Operation(kind, tuple(args) if count else (), payload), off


#: Request's operation, framed by the pinned ``encode_request``.
_OPERATION = Kind(
    "(kind str \\| argc u16 \\| arg* \\| payload str)",
    arg="{v}.kind, {v}.args, {v}.payload",
    read="{v}, off = read_operation(buf, off, end)",
    json="{v}.to_wire()",
    size="{v}.wire_size()",
    names={"read_operation": _read_operation},
)


class Request(ProtocolMessage):
    """Client request: ``<REQUEST, op, ts, client>`` signed by the client.

    The frame covers the full payload content, so any two requests with
    different operations, timestamps or clients have different digests.
    """

    TAG = TAG_REQUEST
    FIELDS = (Field("operation", _OPERATION), Field("timestamp", I64), Field("client_id", STR))
    FRAME = ("timestamp", "client_id", "operation")
    ENCODER = "encode_request"
    SIZE = _SIGNED_BYTES


def _payload_size(result: Any) -> int:
    """Modeled bytes a result adds to its reply: a dict result's string ``payload``."""
    if isinstance(result, dict):
        payload = result.get("payload", "")
        if isinstance(payload, str):
            return len(payload)
    return 0


def _read_result(buf: bytes, off: int, end: int) -> Tuple[OpaqueResult, int]:
    result_digest, off = read_digest(buf, off, end)
    return OpaqueResult(result_digest), off


#: Reply's result travels (and is signed) as its digest only.
_RESULT = Kind(
    "dig (of the result)",
    arg="self.result_digest()",
    read="{v}, off = read_result(buf, off, end)",
    json="self.result_digest()",
    size="payload_size(self.result)",
    names={"read_result": _read_result, "payload_size": _payload_size},
)


def _more_size(more: Sequence[Tuple[int, Any]]) -> int:
    """Modeled bytes of the tail: a count, then a timestamp and a digest per entry."""
    return 4 + sum(40 + _payload_size(result) for _, result in more) if more else 0


def _read_more(
    buf: bytes, off: int, end: int, timestamp: int
) -> Tuple[Tuple[Tuple[int, OpaqueResult], ...], int]:
    if off == end:
        return (), off
    count, off = read_u32(buf, off, end)
    if not count:
        # A one-entry reply has no tail, so an empty one is never encoded.
        raise WireDecodeError("reply frame carries an empty tail")
    seen = {timestamp}
    more = []
    for _ in range(count):
        entry_timestamp, off = read_i64(buf, off, end)
        if entry_timestamp in seen:
            raise WireDecodeError(f"reply frame answers timestamp {entry_timestamp} twice")
        seen.add(entry_timestamp)
        entry_digest, off = read_digest(buf, off, end)
        more.append((entry_timestamp, OpaqueResult(entry_digest)))
    return tuple(more), off


#: The ``(timestamp, result)`` entries of a reply after its first, each
#: result signed as its digest; absent from the frame when there are none.
_MORE = Kind(
    "(count u32 \\| (timestamp i64 \\| dig)*), omitted when empty",
    arg="[(each, result_digest(result)) for each, result in {v}]",
    read="{v}, off = read_more(buf, off, end, timestamp)",
    json="[(each, result_digest(result)) for each, result in {v}]",
    size="more_size({v})",
    names={"read_more": _read_more, "result_digest": result_digest, "more_size": _more_size},
)


class Reply(ProtocolMessage):
    """Reply to a client: ``<REPLY, mode, view, ts, result>`` signed by the replica.

    One reply answers every request of its client that executed in one slot:
    ``timestamp`` / ``result`` is the first, ``more`` holds the rest as
    ``(timestamp, result)`` pairs (empty for a one-request reply, whose
    frame, digest and modeled size are those of a reply without the field).
    """

    TAG = TAG_REPLY
    FIELDS = (
        Field("mode", I64),
        Field("view", I64),
        Field("timestamp", I64),
        Field("client_id", STR),
        Field("replica_id", STR),
        Field("result", _RESULT),
        Field("more", _MORE, default=()),
    )
    ENCODER = "encode_reply"
    SIZE = _SIGNED_BYTES + 16

    def result_digest(self) -> str:
        """Digest of the first entry's result (what clients match replies on).

        Cached on the reply (computed at sign time, reused by the client);
        invalidated with the other wire caches on mutation or copy.
        """
        instance_dict = self.__dict__
        cached = instance_dict.get(_RESULT_DIGEST_ATTR)
        if cached is None:
            cached = result_digest(self.result)
            instance_dict[_RESULT_DIGEST_ATTR] = cached
            instance_dict[HAS_CACHE_FLAG] = True
        return cached

    def entries(self) -> List[Tuple[int, Any, str]]:
        """``(timestamp, result, result digest)`` of every request answered, in order."""
        entries = [(self.timestamp, self.result, self.result_digest())]
        for timestamp, result in self.more:
            entries.append((timestamp, result, result_digest(result)))
        return entries


class Busy(ProtocolMessage):
    """Admission-control reject: the primary shed this request under load.

    Sent instead of ordering the request when the primary's queue-depth /
    in-flight watermark is exceeded (see ``repro.core.admission``).  Signed
    by the rejecting replica so a Byzantine node cannot forge rejects to
    starve a client of an honest primary — clients verify before backing
    off.
    """

    TAG = 0x04
    FIELDS = (
        Field("mode", I64),
        Field("view", I64),
        Field("timestamp", I64),
        Field("client_id", STR),
        Field("replica_id", STR),
        Field("queue_depth", I64),
    )
    SIZE = _SIGNED_BYTES + 8


def _read_request_frames(buf: bytes, off: int, end: int) -> Tuple[List[Request], int]:
    count, off = read_u32(buf, off, end)
    requests = []
    for _ in range(count):
        # Each embedded frame is decoded inside its own window of the batch
        # frame: nothing in it can reach past ``stop`` into the next request.
        off, stop = read_window(buf, off, end)
        if off == stop or buf[off] != TAG_REQUEST:
            raise WireDecodeError("batch frame embeds a non-request frame")
        requests.append(Request.from_buffer(buf, off, stop))
        off = stop
    if not requests:
        raise WireDecodeError("batch frame contains no requests")
    return requests, off


def _signature_slot(item: Any) -> Optional[Signature]:
    if item is not None and type(item) is not Signature:
        raise ValueError(f"a signature slot holds a signature, not {type(item).__name__}")
    return item


#: Batch's requests: each one's own frozen frame embedded (so a request that
#: already crossed the wire alone contributes its cached slice, and vice
#: versa), the client signatures detached.
_REQUEST_FRAMES = Kind(
    "(count u32 \\| (length u32 \\| request frame)*)",
    arg="[request.wire_slice() for request in {v}]",
    read="{v}, off = read_request_frames(buf, off, end)",
    json="[digest_of(request) for request in {v}]",
    size="sum(request.cached_wire_size() for request in {v})",
    check="if not {v}: raise ValueError('a batch must contain at least one request')",
    detach="[request.signature for request in {v}]",
    attach="for request in {v}: request.signature = signature_slot(next(items))",
    names={
        "read_request_frames": _read_request_frames,
        "digest_of": digest_of,
        "signature_slot": _signature_slot,
    },
)


class Batch(ProtocolMessage):
    """An ordered group of client requests proposed in one consensus slot.

    Batching amortizes the per-slot agreement cost (ordering messages,
    signatures, quorum bookkeeping) over many client requests, which is the
    standard PBFT-style throughput lever.  The batch itself is unsigned: the
    ordering message that carries it (``PREPARE`` / ``PRE-PREPARE``) is
    signed by the primary, and each inner request keeps its own client
    signature.  Replicas commit the batch as a unit and, after execution,
    send each client one reply answering all of its requests in the batch.
    """

    TAG = TAG_BATCH
    FIELDS = (Field("requests", _REQUEST_FRAMES),)
    ENCODER = "encode_batch"
    SIGNED = False
    SIZE = _HEADER_BYTES

    def release_wire_frames(self) -> None:
        super().release_wire_frames()
        for request in self.requests:
            request.release_wire_frames()

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)

    @property
    def client_id(self) -> str:
        """Lead request's client id (keeps slot-level bookkeeping uniform)."""
        return self.requests[0].client_id

    @property
    def timestamp(self) -> int:
        """Lead request's timestamp (keeps slot-level bookkeeping uniform)."""
        return self.requests[0].timestamp


class Checkpoint(ProtocolMessage):
    """``<CHECKPOINT, n, d>_r`` — a replica's signed state digest at checkpoint boundary ``n``.

    ``mode`` is the sender's mode id (a baseline's is 0).
    """

    TAG = TAG_CHECKPOINT
    FIELDS = (
        Field("sequence", I64),
        Field("state_digest", DIGEST),
        Field("replica_id", STR),
        Field("mode", I64),
    )
    ENCODER = "encode_checkpoint"
    SIZE = _SIGNED_BYTES + _DIGEST_BYTES


#: ``(view, sequence, digest, ·, mode)``: the signed content of every vote.
_VIEW, _SEQUENCE, _DIGEST, _MODE = (
    Field("view", I64), Field("sequence", I64), Field("digest", DIGEST), Field("mode", I64)
)
_REPLICA = Field("replica_id", STR)
_ATTRIBUTED_VOTE = (_VIEW, _SEQUENCE, _DIGEST, _REPLICA, _MODE)
#: A primary's ordering message: the slot payload rides beside the frame.
_ORDERING = (_VIEW, _SEQUENCE, _DIGEST, Field("request", PAYLOAD), _MODE)


# -- the leader agreement (repro.smr.leader): Lion, signed; cft (mode 0), unsigned --


class Prepare(ProtocolMessage):
    """``<<PREPARE, v, n, d>_p, µ>`` from a trusted primary (Lion, Dog) or a Paxos leader."""

    TAG = TAG_PREPARE
    FIELDS = _ORDERING
    ENCODER = "encode_vote"
    SIZE = _HEADER_BYTES + _DIGEST_BYTES
    SIZE_IF_SIGNED = _SIGNATURE_BYTES


class Accept(ProtocolMessage):
    """``<ACCEPT, v, n, d, r>`` — unsigned to a trusted primary or a Paxos leader,
    signed among Dog's proxies."""

    TAG = TAG_ACCEPT
    FIELDS = _ATTRIBUTED_VOTE
    ENCODER = "encode_attributed_vote"
    SIGNED = False
    SIZE = _HEADER_BYTES + _DIGEST_BYTES
    SIZE_IF_SIGNED = _SIGNATURE_BYTES


# -- PBFT's phases (repro.smr.pbft): Peacock among its proxies, bft and s-upright (mode 0) --


class PrePrepare(ProtocolMessage):
    """``<<PRE-PREPARE, v, n, d>_p, µ>`` from an untrusted primary."""

    TAG = TAG_PREPREPARE
    FIELDS = _ORDERING
    ENCODER = "encode_vote"
    SIZE = _SIGNED_VOTE_BYTES


class ProxyPrepare(ProtocolMessage):
    """PBFT's ``PREPARE`` vote, among Peacock's proxies or a BFT baseline's replicas."""

    TAG = TAG_PROXY_PREPARE
    FIELDS = _ATTRIBUTED_VOTE
    ENCODER = "encode_attributed_vote"
    SIZE = _SIGNED_VOTE_BYTES


class Commit(ProtocolMessage):
    """``<<COMMIT, v, n, d>, µ>`` — PBFT's commit vote, a Dog proxy's, or the
    Lion primary's (signed) or Paxos leader's (unsigned) commit.

    ``request`` carries the payload to lagging replicas (Lion, Paxos).
    """

    TAG = TAG_COMMIT
    FIELDS = _ATTRIBUTED_VOTE + (Field("request", PAYLOAD, None),)
    ENCODER = "encode_attributed_vote"
    SIZE = _HEADER_BYTES + _DIGEST_BYTES
    SIZE_IF_SIGNED = _SIGNATURE_BYTES


class NewView(ProtocolMessage):
    """``<NEW-VIEW, v+1, P', C'>`` from the new primary (or SeeMoRe's transferer).

    A baseline's carries mode 0 and no commits.
    """

    TAG = 0x18
    FIELDS = (
        Field("new_view", I64),
        _MODE,
        _REPLICA,
        Field("checkpoint_sequence", I64),
        Field("prepares", ENTRIES, list),
        Field("commits", ENTRIES, list),
    )
    SIZE = _SIGNED_BYTES


# -- state transfer (ReplicaBase's catch-up): every protocol --


class StateTransferRequest(ProtocolMessage):
    """A lagging replica asks a peer for the state at its stable checkpoint."""

    TAG = 0x1A
    FIELDS = (_REPLICA, Field("known_sequence", I64))
    SIGNED = False
    SIZE = _HEADER_BYTES


class StateTransferResponse(ProtocolMessage):
    """Checkpointed application state shipped to a lagging replica.

    The snapshot rides beside the signed frame; the receiver adopts it only
    if it is the state ``checkpoint_sequence`` and ``state_digest`` name.
    """

    TAG = 0x1B
    FIELDS = (
        _REPLICA,
        Field("checkpoint_sequence", I64),
        Field("state_digest", DIGEST),
        Field("snapshot", ATTACHMENT, dict),
    )
    SIZE = _SIGNED_VOTE_BYTES + 1024


def requests_of(payload: Any) -> List[Request]:
    """The client requests inside a slot payload (a batch or a bare request)."""
    if isinstance(payload, Batch):
        return payload.requests
    return [payload]


__all__ = [
    "ProtocolMessage",
    "Request",
    "Reply",
    "Busy",
    "Batch",
    "Checkpoint",
    "Prepare",
    "Accept",
    "PrePrepare",
    "ProxyPrepare",
    "Commit",
    "NewView",
    "StateTransferRequest",
    "StateTransferResponse",
    "FrameMismatch",
    "requests_of",
    "_HEADER_BYTES",
    "_SIGNATURE_BYTES",
    "_DIGEST_BYTES",
    "_SIGNED_BYTES",
]
