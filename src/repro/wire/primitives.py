"""Binary frame primitives: tags, pack helpers, the pinned hot encoders, the readers.

This module is a *leaf*: it imports nothing from the message layer.  Every
message class declares its fields once and :mod:`repro.wire.codec` derives
its frame from the helpers here; the per-type layouts are tabulated in the
README ("Binary wire format", generated from the registry).

All integers are little endian.  ``str`` is ``u32 length + UTF-8 bytes``.
``dig`` packs the canonical 64-char lowercase hex digest to 32 raw bytes
behind a 0x01 flag byte, with a length-prefixed string fallback (flag 0x00)
for the synthetic digest strings tests and attack helpers use — the two
branches cover disjoint string sets, so the encoding stays injective.

Plain values (operation arguments, state-transfer snapshots) are encoded
with one type-tag byte each (see :func:`pack_value`).  The typed encoding is
injective on the supported domain (None/bool/int/float/str/tuple/list/
dict/bytes) and never lets *content* collide with frame structure: every
variable-length field is length prefixed, so no separator can be spoofed.
Unsupported types fall back to a ``repr`` capsule that digests faithfully
but refuses to decode.

Decoding accepts only the frames encoding produces: ``encode(decode(f)) ==
f`` for every frame ``f`` that decodes (no leading zeros or signs on
numbers, no spelled-out canonical digest, no repeated dict key), so a
frame rebuilt from decoded fields hashes to the digest of the one received.

Decoding is in place and has one convention: ``read_x(buf, off, end)`` reads
one field at ``off`` from the window ``[off, end)`` of ``buf`` and returns
``(value, next_off)``; there is no cursor object and nothing is copied but
the field itself.  Hand-written readers call the ``read_x`` functions; the
decoders :mod:`repro.wire.codec` generates read their ``str`` and ``dig``
fields inline, from source templates that make the same checks and raise
the same errors as :func:`read_str` and :func:`read_digest` (a spelled-out
``0x00`` digest still goes through :func:`read_digest`).  Every read checks
its bounds against ``end`` and raises :class:`WireDecodeError` (built by
:func:`truncated`) rather than reading past it.  ``end`` is therefore
always the end of the *innermost* frame being decoded — a request embedded
in a batch is read with its own end, not the batch's — or a length inside
one frame could reach into whatever follows it in the buffer; whoever opens
a nested window also checks that it was consumed exactly.  Decode is on the
hot path of the TCP backends (every message a node receives); the simulator
never decodes.
"""

from __future__ import annotations

import struct
from typing import Any, Sequence, Tuple

TAG_REQUEST = 0x01
TAG_BATCH = 0x02
TAG_REPLY = 0x03
TAG_PREPARE = 0x10
TAG_ACCEPT = 0x11
TAG_COMMIT = 0x12
TAG_PREPREPARE = 0x13
TAG_PROXY_PREPARE = 0x14
TAG_INFORM = 0x15
TAG_CHECKPOINT = 0x16

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
REQUEST_HEAD = struct.Struct("<Bq")
REPLY_HEAD = struct.Struct("<Bqqq")
VOTE_HEAD = struct.Struct("<Bqqq")
CHECKPOINT_HEAD = struct.Struct("<Bqq")
BATCH_HEAD = struct.Struct("<BI")


#: Deepest container nesting :func:`read_value` follows before it rejects
#: the frame; honest values (operation arguments, snapshots) nest a few deep.
MAX_VALUE_DEPTH = 32


class WireDecodeError(ValueError):
    """A frame is truncated, garbled, or not invertible."""


def pack_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    return _U32.pack(len(raw)) + raw


def pack_digest(value: str) -> bytes:
    """Pack a digest field: canonical hex digests compress to raw bytes."""
    if len(value) == 64:
        try:
            raw = bytes.fromhex(value)
        except ValueError:
            pass
        else:
            # Only the canonical lowercase spelling takes the packed branch;
            # anything else (uppercase hex is a *different string* to the
            # legacy canonical form) keeps its exact text.
            if raw.hex() == value:
                return b"\x01" + raw
    raw = value.encode("utf-8")
    return b"\x00" + _U32.pack(len(raw)) + raw


def pack_value(value: Any) -> bytes:
    """Typed, injective encoding of one plain value."""
    kind = type(value)
    if kind is str:
        raw = value.encode("utf-8")
        return b"S" + _U32.pack(len(raw)) + raw
    if kind is bool:
        return b"T" if value else b"F"
    if kind is int:
        raw = str(value).encode("ascii")
        return b"I" + _U32.pack(len(raw)) + raw
    if kind is float:
        # repr round-trips floats exactly in Python 3 and, like the legacy
        # repr-escaped form, maps equal-but-distinctly-spelled values
        # (0.0 vs -0.0) to distinct encodings.
        raw = repr(value).encode("ascii")
        return b"f" + _U32.pack(len(raw)) + raw
    if value is None:
        return b"N"
    if kind is tuple:
        return b"U" + _U32.pack(len(value)) + b"".join(map(pack_value, value))
    if kind is list:
        return b"L" + _U32.pack(len(value)) + b"".join(map(pack_value, value))
    if kind is bytes:
        return b"B" + _U32.pack(len(value)) + value
    if kind is dict:
        # Insertion order: the value is carried as built, not canonicalized.
        pairs = (pack_value(key) + pack_value(item) for key, item in value.items())
        return b"D" + _U32.pack(len(value)) + b"".join(pairs)
    # Opaque fallback: digests faithfully (mirrors the legacy repr
    # escaping, so the digest equality relation is preserved) but cannot
    # be decoded back; unpack_value raises WireDecodeError for it.
    raw = repr(value).encode("utf-8")
    return b"R" + _U32.pack(len(raw)) + raw


def encode_request(
    timestamp: int, client_id: str, kind: str, args: Sequence[Any], payload: str
) -> bytes:
    # pack_str (and the string case of pack_value) is inlined: a request is
    # encoded on every client send and batch inclusion, making this the
    # hottest encoder in the codec.
    u32 = _U32.pack
    client_raw = client_id.encode("utf-8")
    kind_raw = kind.encode("utf-8")
    parts = [
        REQUEST_HEAD.pack(TAG_REQUEST, timestamp),
        u32(len(client_raw)),
        client_raw,
        u32(len(kind_raw)),
        kind_raw,
        _U16.pack(len(args)),
    ]
    append = parts.append
    for arg in args:
        if type(arg) is str:
            raw = arg.encode("utf-8")
            append(b"S")
            append(u32(len(raw)))
            append(raw)
        else:
            append(pack_value(arg))
    payload_raw = payload.encode("utf-8")
    append(u32(len(payload_raw)))
    append(payload_raw)
    return b"".join(parts)


def encode_batch(request_frames: Sequence[bytes]) -> bytes:
    parts = [BATCH_HEAD.pack(TAG_BATCH, len(request_frames))]
    for frame in request_frames:
        parts.append(_U32.pack(len(frame)))
        parts.append(frame)
    return b"".join(parts)


def encode_reply(
    mode: int,
    view: int,
    timestamp: int,
    client_id: str,
    replica_id: str,
    result_digest: str,
    more: Sequence[Tuple[int, str]] = (),
) -> bytes:
    """A reply frame; ``more`` are the ``(timestamp, result digest)`` entries after the first.

    A one-entry reply has no tail at all; further entries ride one
    ``count u32 | (timestamp i64 | dig)*`` tail with ``count >= 1``.
    """
    # One reply is encoded per client per executed slot per replying
    # replica, so pack_str is inlined here too.
    u32 = _U32.pack
    client_raw = client_id.encode("utf-8")
    replica_raw = replica_id.encode("utf-8")
    parts = [
        REPLY_HEAD.pack(TAG_REPLY, mode, view, timestamp),
        u32(len(client_raw)),
        client_raw,
        u32(len(replica_raw)),
        replica_raw,
        pack_digest(result_digest),
    ]
    if more:
        parts.append(u32(len(more)))
        for entry_timestamp, entry_digest in more:
            parts.append(_I64.pack(entry_timestamp))
            parts.append(pack_digest(entry_digest))
    return b"".join(parts)


def encode_vote(tag: int, view: int, sequence: int, mode: int, digest: str) -> bytes:
    """Frame for ordering messages whose signed fields are (v, n, d, mode)."""
    return VOTE_HEAD.pack(tag, view, sequence, mode) + pack_digest(digest)


def encode_attributed_vote(
    tag: int, view: int, sequence: int, mode: int, digest: str, replica_id: str
) -> bytes:
    """Frame for votes that additionally name their voting replica."""
    return VOTE_HEAD.pack(tag, view, sequence, mode) + pack_digest(digest) + pack_str(replica_id)


def encode_checkpoint(sequence: int, mode: int, state_digest: str, replica_id: str) -> bytes:
    return (
        CHECKPOINT_HEAD.pack(TAG_CHECKPOINT, sequence, mode)
        + pack_digest(state_digest)
        + pack_str(replica_id)
    )


def truncated(count: int, off: int, end: int) -> WireDecodeError:
    return WireDecodeError(
        f"truncated frame: wanted {count} bytes at offset {off}, have {end - off}"
    )


def read_u16(buf: bytes, off: int, end: int) -> Tuple[int, int]:
    stop = off + 2
    if stop > end:
        raise truncated(2, off, end)
    return _U16.unpack_from(buf, off)[0], stop


def read_u32(buf: bytes, off: int, end: int) -> Tuple[int, int]:
    stop = off + 4
    if stop > end:
        raise truncated(4, off, end)
    return _U32.unpack_from(buf, off)[0], stop


def read_i64(buf: bytes, off: int, end: int) -> Tuple[int, int]:
    stop = off + 8
    if stop > end:
        raise truncated(8, off, end)
    return _I64.unpack_from(buf, off)[0], stop


def read_window(buf: bytes, off: int, end: int) -> Tuple[int, int]:
    """The bounds ``(start, stop)`` of a ``u32 length``-prefixed run of bytes.

    What is inside (an embedded frame, a detached value) is then read with
    ``stop`` as its ``end``.
    """
    start = off + 4
    if start > end:
        raise truncated(4, off, end)
    stop = start + _U32.unpack_from(buf, off)[0]
    if stop > end:
        raise truncated(stop - start, start, end)
    return start, stop


def read_bytes(buf: bytes, off: int, end: int) -> Tuple[bytes, int]:
    start, stop = read_window(buf, off, end)
    return buf[start:stop], stop


def read_str(buf: bytes, off: int, end: int) -> Tuple[str, int]:
    # ``read_window`` inlined: a string is read several times per message.
    start = off + 4
    if start > end:
        raise truncated(4, off, end)
    stop = start + _U32.unpack_from(buf, off)[0]
    if stop > end:
        raise truncated(stop - start, start, end)
    try:
        return buf[start:stop].decode("utf-8"), stop
    except UnicodeDecodeError as exc:
        raise WireDecodeError(f"garbled UTF-8 string field: {exc}") from None


def read_digest(buf: bytes, off: int, end: int) -> Tuple[str, int]:
    if off >= end:
        raise truncated(1, off, end)
    flag = buf[off]
    off += 1
    if flag == 1:
        stop = off + 32
        if stop > end:
            raise truncated(32, off, end)
        return buf[off:stop].hex(), stop
    if flag == 0:
        value, off = read_str(buf, off, end)
        if len(value) == 64 and pack_digest(value)[0] == 1:
            raise WireDecodeError("canonical hex digest spelled out as text")
        return value, off
    raise WireDecodeError(f"garbled digest flag byte: {bytes((flag,))!r}")


def read_value(buf: bytes, off: int, end: int, depth: int = 0) -> Tuple[Any, int]:
    """Inverse of :func:`pack_value`."""
    if off >= end:
        raise truncated(1, off, end)
    tag = buf[off : off + 1]
    off += 1
    if tag == b"S":
        return read_str(buf, off, end)
    if tag == b"T":
        return True, off
    if tag == b"F":
        return False, off
    if tag in (b"I", b"f"):
        raw, off = read_bytes(buf, off, end)
        try:
            value = (int if tag == b"I" else float)(raw.decode("ascii"))
        except (UnicodeDecodeError, ValueError):
            raise WireDecodeError(f"garbled numeric argument: {raw!r}") from None
        # ``int()`` and ``float()`` also take ``07``, ``+7``, `` 7``, ``1_0``
        # and ``1.50``: only the spelling ``pack_value`` writes decodes.
        if (str(value) if tag == b"I" else repr(value)).encode("ascii") != raw:
            raise WireDecodeError(f"non-canonical numeric argument: {raw!r}")
        return value, off
    if tag == b"N":
        return None, off
    if tag in (b"U", b"L", b"D"):
        if depth >= MAX_VALUE_DEPTH:
            raise WireDecodeError(f"value nested deeper than {MAX_VALUE_DEPTH} containers")
        depth += 1
        count, off = read_u32(buf, off, end)
        # Two items per dict entry: key, value, key, value, ...
        items = []
        for _ in range(2 * count if tag == b"D" else count):
            item, off = read_value(buf, off, end, depth)
            items.append(item)
        if tag == b"L":
            return items, off
        if tag == b"U":
            return tuple(items), off
        try:
            value = dict(zip(items[::2], items[1::2]))
        except TypeError:
            raise WireDecodeError("unhashable dict key") from None
        if len(value) != count:
            raise WireDecodeError("duplicate dict key")
        return value, off
    if tag == b"B":
        return read_bytes(buf, off, end)
    if tag == b"R":
        raise WireDecodeError(
            "opaque repr-encoded argument: digestible but not invertible"
        )
    raise WireDecodeError(f"unknown argument type tag: {tag!r}")
