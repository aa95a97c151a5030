"""Differential test suite for the binary wire codec (:mod:`repro.wire`).

The codec replaced per-send JSON canonical-form construction for the hot
message types, and the change is only safe because the properties pinned
here hold:

* **round trip** — ``decode(encode(message))`` reproduces the message for
  every hot type (field-level identity for fully-carried types, frame-level
  identity for types that ship digests instead of values);
* **differential digest equivalence** — the frame digest distinguishes any
  two messages the legacy JSON canonical form distinguished (the frame is
  at least as fine-grained as ``signing_content()``; for digest-carrying
  types it is exactly as fine-grained);
* **rejection** — truncated, garbled, trailing-padded, and unknown-tag
  frames raise :class:`WireDecodeError`, never a stray exception and never
  a silently-wrong message;
* **decoder parity** — every registered class's generated ``from_buffer``
  builds the message its keyword constructor builds (same type, same
  ``__dict__``, fresh containers), in any window of a buffer, and its inline
  ``str`` and ``dig`` reads reject what :func:`read_str` and
  :func:`read_digest` reject, with the same error text.
"""

import inspect
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.baselines.messages  # noqa: F401 - registers the baseline classes
from repro.core.messages import (
    Accept,
    Checkpoint,
    Commit,
    Inform,
    PrePrepare,
    Prepare,
    ProxyPrepare,
)
from repro.crypto.digest import digest_bytes, digest_of
from repro.smr.messages import Batch, Reply, Request
from repro.smr.state_machine import Operation
from repro.wire import codec
from repro.wire.codec import OpaqueResult, decode, encode
from repro.wire.primitives import (
    _U32,
    MAX_VALUE_DEPTH,
    WireDecodeError,
    encode_reply,
    pack_value,
    read_digest,
    read_str,
)

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

I64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
SMALL_INT = st.integers(min_value=0, max_value=2**31)
IDENTIFIER = st.from_regex(r"[a-z][a-z0-9-]{0,15}", fullmatch=True)
TEXT = st.text(max_size=32)

# Digest fields accept both the canonical 64-hex spelling (packed to raw
# bytes on the wire) and arbitrary synthetic strings (length-prefixed
# fallback), because attack helpers and tests inject non-hex digests.
HEX_DIGEST = st.from_regex(r"[0-9a-f]{64}", fullmatch=True)
DIGEST = st.one_of(HEX_DIGEST, TEXT, st.just("AB" * 32))

# Operation arguments: the typed value encoding's full supported domain.
VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False),
        TEXT,
        st.binary(max_size=24),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=3),
    ),
    max_leaves=8,
)

OPERATIONS = st.builds(
    Operation,
    kind=IDENTIFIER,
    args=st.lists(VALUES, max_size=4).map(tuple),
    payload=TEXT,
)

REQUESTS = st.builds(Request, operation=OPERATIONS, timestamp=I64, client_id=IDENTIFIER)

BATCHES = st.builds(Batch, requests=st.lists(REQUESTS, min_size=1, max_size=4))

REPLIES = st.builds(
    Reply,
    mode=I64,
    view=I64,
    timestamp=I64,
    client_id=IDENTIFIER,
    replica_id=IDENTIFIER,
    result=st.one_of(
        st.builds(OpaqueResult, result_digest=DIGEST),
        st.dictionaries(IDENTIFIER, st.one_of(st.integers(), TEXT, st.booleans()), max_size=3),
    ),
)

PREPARES = st.builds(
    Prepare, view=I64, sequence=I64, digest=DIGEST, request=st.none(), mode=I64
)
PREPREPARES = st.builds(
    PrePrepare, view=I64, sequence=I64, digest=DIGEST, request=st.none(), mode=I64
)
ACCEPTS = st.builds(
    Accept, view=I64, sequence=I64, digest=DIGEST, replica_id=IDENTIFIER, mode=I64
)
COMMITS = st.builds(
    Commit, view=I64, sequence=I64, digest=DIGEST, replica_id=IDENTIFIER, mode=I64
)
PROXY_PREPARES = st.builds(
    ProxyPrepare, view=I64, sequence=I64, digest=DIGEST, replica_id=IDENTIFIER, mode=I64
)
INFORMS = st.builds(
    Inform, view=I64, sequence=I64, digest=DIGEST, replica_id=IDENTIFIER, mode=I64
)
CHECKPOINTS = st.builds(
    Checkpoint, sequence=I64, state_digest=DIGEST, replica_id=IDENTIFIER, mode=I64
)

#: Every hot type: (strategy, fully_carried) — fully-carried types round
#: trip to field equality; the rest (Reply ships only the result digest)
#: round trip at the frame level.
HOT_MESSAGES = st.one_of(
    REQUESTS,
    BATCHES,
    REPLIES,
    PREPARES,
    PREPREPARES,
    ACCEPTS,
    COMMITS,
    PROXY_PREPARES,
    INFORMS,
    CHECKPOINTS,
)


def legacy_canonical_bytes(message) -> bytes:
    """The pre-codec canonical form: sorted-key JSON of signing_content."""

    def fallback(value):
        to_wire = getattr(value, "to_wire", None)
        if callable(to_wire):
            return to_wire()
        return repr(value)

    return json.dumps(message.signing_content(), sort_keys=True, default=fallback).encode(
        "utf-8"
    )


# ---------------------------------------------------------------------------
# round-trip properties
# ---------------------------------------------------------------------------


class TestRoundTrip:
    @given(request=REQUESTS)
    def test_request_round_trips_to_field_identity(self, request):
        twin = decode(encode(request))
        assert isinstance(twin, Request)
        assert twin.operation == request.operation
        assert type(twin.operation.args) is tuple
        assert twin.timestamp == request.timestamp
        assert twin.client_id == request.client_id

    @given(batch=BATCHES)
    def test_batch_round_trips_every_inner_request(self, batch):
        twin = decode(encode(batch))
        assert isinstance(twin, Batch)
        assert len(twin.requests) == len(batch.requests)
        for ours, theirs in zip(batch.requests, twin.requests):
            assert theirs.operation == ours.operation
            assert theirs.timestamp == ours.timestamp
            assert theirs.client_id == ours.client_id

    @given(reply=REPLIES)
    def test_reply_round_trips_at_the_frame_level(self, reply):
        """A reply ships its result as a digest; re-encoding reproduces it."""
        frame = encode(reply)
        twin = decode(frame)
        assert isinstance(twin, Reply)
        assert (twin.mode, twin.view, twin.timestamp) == (
            reply.mode,
            reply.view,
            reply.timestamp,
        )
        assert (twin.client_id, twin.replica_id) == (reply.client_id, reply.replica_id)
        assert isinstance(twin.result, OpaqueResult)
        assert twin.result_digest() == reply.result_digest()
        assert encode(twin) == frame

    @given(message=st.one_of(PREPARES, PREPREPARES))
    def test_ordering_messages_round_trip(self, message):
        twin = decode(encode(message))
        assert type(twin) is type(message)
        assert (twin.view, twin.sequence, twin.mode) == (
            message.view,
            message.sequence,
            message.mode,
        )
        assert twin.digest == message.digest
        # The piggybacked payload is transport, not signed content.
        assert twin.request is None

    @given(message=st.one_of(ACCEPTS, COMMITS, PROXY_PREPARES, INFORMS))
    def test_attributed_votes_round_trip(self, message):
        twin = decode(encode(message))
        assert type(twin) is type(message)
        assert (twin.view, twin.sequence, twin.mode) == (
            message.view,
            message.sequence,
            message.mode,
        )
        assert twin.digest == message.digest
        assert twin.replica_id == message.replica_id

    @given(checkpoint=CHECKPOINTS)
    def test_checkpoints_round_trip(self, checkpoint):
        twin = decode(encode(checkpoint))
        assert type(twin) is Checkpoint
        assert (twin.sequence, twin.mode) == (checkpoint.sequence, checkpoint.mode)
        assert twin.state_digest == checkpoint.state_digest
        assert twin.replica_id == checkpoint.replica_id

    @given(message=HOT_MESSAGES)
    def test_reencoding_a_decoded_message_is_byte_identical(self, message):
        """encode ∘ decode is the identity on every frame encode produces."""
        frame = encode(message)
        assert encode(decode(frame)) == frame

    @given(message=HOT_MESSAGES)
    def test_decoded_messages_carry_no_signature(self, message):
        assert decode(encode(message)).signature is None


# ---------------------------------------------------------------------------
# differential digest equivalence vs the legacy canonical form
# ---------------------------------------------------------------------------


class TestDifferentialDigests:
    @given(message=HOT_MESSAGES)
    def test_digest_of_is_the_frame_digest(self, message):
        """The cached digest layer hashes exactly the wire slice."""
        assert digest_of(message) == digest_bytes(encode(message))
        assert encode(message) == message.signing_bytes()

    @given(message=HOT_MESSAGES)
    def test_decoding_preserves_the_digest(self, message):
        """A decoded twin digests identically to the source message."""
        assert digest_of(decode(encode(message))) == digest_of(message)

    @given(first=HOT_MESSAGES, second=HOT_MESSAGES)
    def test_frames_distinguish_everything_the_legacy_form_did(self, first, second):
        """Any two messages with distinct legacy canonical forms have
        distinct frames — the codec never *merges* messages the JSON form
        told apart, so no digest-equality argument is weakened."""
        if legacy_canonical_bytes(first) != legacy_canonical_bytes(second):
            assert encode(first) != encode(second)

    @given(
        first=st.one_of(REPLIES, PREPARES, ACCEPTS, COMMITS, CHECKPOINTS),
        second=st.one_of(REPLIES, PREPARES, ACCEPTS, COMMITS, CHECKPOINTS),
    )
    def test_digest_carrying_types_match_the_legacy_equality_exactly(self, first, second):
        """For types whose signed fields are all carried (votes, replies,
        checkpoints) frame equality *iff* legacy-canonical equality."""
        legacy_equal = legacy_canonical_bytes(first) == legacy_canonical_bytes(second)
        assert (encode(first) == encode(second)) == legacy_equal

    @given(request=REQUESTS, payload=TEXT)
    def test_request_frames_are_strictly_finer_than_the_legacy_form(self, request, payload):
        """The legacy request form covered only the payload *length*; the
        frame covers its content, distinguishing strictly more."""
        if payload == request.operation.payload:
            return
        sibling = Request(
            operation=Operation(
                kind=request.operation.kind,
                args=request.operation.args,
                payload=payload,
            ),
            timestamp=request.timestamp,
            client_id=request.client_id,
        )
        assert encode(sibling) != encode(request)

    def test_unsupported_argument_types_digest_but_refuse_to_decode(self):
        """The opaque repr capsule keeps digests faithful for exotic args
        while refusing to fabricate a decoded value."""

        class Exotic:
            def __repr__(self):
                return "Exotic()"

        request = Request(
            operation=Operation("op", (Exotic(),)), timestamp=1, client_id="c"
        )
        frame = encode(request)
        assert digest_of(request) == digest_bytes(frame)
        with pytest.raises(WireDecodeError):
            decode(frame)


# ---------------------------------------------------------------------------
# rejection of truncated / garbled frames
# ---------------------------------------------------------------------------


class TestRejection:
    @given(message=HOT_MESSAGES, data=st.data())
    @settings(max_examples=200)
    def test_any_strict_prefix_is_rejected(self, message, data):
        frame = encode(message)
        cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        with pytest.raises(WireDecodeError):
            decode(frame[:cut])

    @given(message=HOT_MESSAGES, suffix=st.binary(min_size=1, max_size=8))
    def test_trailing_bytes_are_rejected(self, message, suffix):
        with pytest.raises(WireDecodeError):
            decode(encode(message) + suffix)

    @given(body=st.binary(max_size=64), tag=st.integers(min_value=0, max_value=255))
    def test_unknown_tags_are_rejected(self, body, tag):
        if tag in (0x01, 0x02, 0x03, 0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16):
            return
        with pytest.raises(WireDecodeError):
            decode(bytes([tag]) + body)

    @given(data=st.binary(max_size=256))
    @settings(max_examples=300)
    def test_arbitrary_bytes_never_raise_anything_but_wire_decode_error(self, data):
        """Hostile input is rejected cleanly: no struct errors, no unicode
        errors, no allocation bombs from huge length prefixes."""
        try:
            message = decode(data)
        except WireDecodeError:
            return
        assert type(message) in (
            Request,
            Batch,
            Reply,
            Prepare,
            PrePrepare,
            Accept,
            Commit,
            ProxyPrepare,
            Inform,
            Checkpoint,
        )

    @given(message=HOT_MESSAGES, data=st.data())
    @settings(max_examples=200)
    def test_single_byte_corruption_never_yields_the_same_digest(self, message, data):
        """Flipping any byte of a frame either fails to decode or decodes
        to a message whose re-encoded frame is exactly the mutated one — so
        it differs from the original, and a frame rebuilt from the decoded
        fields hashes to the digest of the bytes received."""
        frame = bytearray(encode(message))
        index = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        flip = data.draw(st.integers(min_value=1, max_value=255))
        frame[index] ^= flip
        mutated = bytes(frame)
        try:
            twin = decode(mutated)
        except WireDecodeError:
            return
        assert encode(twin) == mutated
        assert digest_bytes(encode(twin)) != digest_bytes(encode(message))

    def test_empty_frame_is_rejected(self):
        with pytest.raises(WireDecodeError):
            decode(b"")

    def test_non_bytes_frames_are_rejected(self):
        with pytest.raises(WireDecodeError):
            decode("not-bytes")

    def test_garbled_utf8_string_field_is_rejected(self):
        frame = bytearray(encode(Request(Operation("op"), timestamp=1, client_id="ab")))
        # client string starts after the 9-byte request head + 4-byte length.
        frame[13] = 0xFF
        with pytest.raises(WireDecodeError):
            decode(bytes(frame))

    def test_garbled_digest_flag_is_rejected(self):
        checkpoint = Checkpoint(sequence=1, state_digest="ab" * 32, replica_id="r", mode=0)
        frame = bytearray(encode(checkpoint))
        # digest flag byte sits right after the 17-byte checkpoint head.
        assert frame[17] in (0, 1)
        frame[17] = 0x7F
        with pytest.raises(WireDecodeError):
            decode(bytes(frame))

    def test_batch_embedding_a_non_request_frame_is_rejected(self):
        inner = encode(Checkpoint(sequence=1, state_digest="d", replica_id="r", mode=0))
        from repro.wire.primitives import BATCH_HEAD, TAG_BATCH, _U32

        frame = BATCH_HEAD.pack(TAG_BATCH, 1) + _U32.pack(len(inner)) + inner
        with pytest.raises(WireDecodeError):
            decode(frame)

    def test_an_embedded_request_cannot_read_past_its_own_frame(self):
        """Confinement: each embedded request is decoded inside its own window.

        The first request's payload length is raised so that the payload
        swallows the second request's length prefix and everything of the
        second request up to a third request frame hidden in *its* payload,
        which ends where the batch frame ends.  Every outer length is left as
        it was, so a decoder that let an inner length run to the end of the
        batch frame would find two well-formed requests; one that confines
        each request to its declared window finds a truncated first request.
        """
        hidden = encode(Request(Operation("op", (), "z"), timestamp=3, client_id="c"))
        carrier = hidden.decode("ascii")
        first = Request(Operation("op", (), "aa"), timestamp=1, client_id="c")
        second = Request(
            Operation("op", (), chr(len(hidden)) + "\x00\x00\x00" + carrier),
            timestamp=2,
            client_id="c",
        )
        frame = encode(Batch(requests=[first, second]))
        assert frame.endswith(len(hidden).to_bytes(4, "little") + hidden)
        assert len(decode(frame).requests) == 2
        length_at = frame.index(b"\x02\x00\x00\x00aa")
        swallowed = len(frame) - (length_at + 4) - 4 - len(hidden)
        assert swallowed > len(encode(first))  # reaches well into the second request
        forged = frame[:length_at] + swallowed.to_bytes(4, "little") + frame[length_at + 4 :]
        assert len(forged) == len(frame)
        with pytest.raises(WireDecodeError):
            decode(forged)

    def test_empty_batch_frame_is_rejected(self):
        from repro.wire.primitives import BATCH_HEAD, TAG_BATCH

        with pytest.raises(WireDecodeError):
            decode(BATCH_HEAD.pack(TAG_BATCH, 0))

    def test_deeply_nested_argument_is_rejected_not_a_recursion_error(self):
        """A ~25 KB frame of 5,000 nested one-element tuples used to escape
        ``decode`` as RecursionError; nesting is bounded instead."""
        nested = b"U\x01\x00\x00\x00" * 5000 + b"N"
        honest = encode(Request(Operation("op", (None,)), timestamp=1, client_id="c"))
        assert honest.count(b"N") == 1
        with pytest.raises(WireDecodeError):
            decode(honest.replace(b"N", nested))

    def test_nesting_up_to_the_bound_still_round_trips(self):
        value = None
        for _ in range(MAX_VALUE_DEPTH):
            value = (value,)
        request = Request(Operation("op", (value,)), timestamp=1, client_id="c")
        assert decode(encode(request)).operation.args == (value,)
        with pytest.raises(WireDecodeError):
            decode(encode(Request(Operation("op", ((value,),)), timestamp=1, client_id="c")))

    @staticmethod
    def _request_with_arg(packed_arg: bytes) -> bytes:
        """A request frame whose one argument is ``packed_arg``, spelled as given."""
        honest = encode(Request(Operation("op", (None,)), timestamp=1, client_id="c"))
        assert honest.count(b"N") == 1
        return honest.replace(b"N", packed_arg)

    @pytest.mark.parametrize("text", [b"07", b"+7", b" 7", b"7 ", b"1_0", b"-0"])
    def test_an_integer_spelled_other_than_str_is_rejected(self, text):
        canonical = self._request_with_arg(pack_value(7))
        assert decode(canonical).operation.args == (7,)
        with pytest.raises(WireDecodeError, match="non-canonical"):
            decode(self._request_with_arg(b"I" + len(text).to_bytes(4, "little") + text))

    @pytest.mark.parametrize("text", [b"1.50", b"1.5e0", b"+1.5", b"NaN", b"1e16"])
    def test_a_float_spelled_other_than_repr_is_rejected(self, text):
        canonical = self._request_with_arg(pack_value(1.5))
        assert decode(canonical).operation.args == (1.5,)
        with pytest.raises(WireDecodeError, match="non-canonical"):
            decode(self._request_with_arg(b"f" + len(text).to_bytes(4, "little") + text))

    def test_a_canonical_hex_digest_spelled_out_as_text_is_rejected(self):
        digest = "ab" * 32
        packed = encode(Checkpoint(sequence=1, state_digest=digest, replica_id="r", mode=0))
        text = b"\x00" + len(digest).to_bytes(4, "little") + digest.encode("ascii")
        spelled = packed.replace(b"\x01" + bytes.fromhex(digest), text)
        assert spelled != packed
        with pytest.raises(WireDecodeError, match="spelled out"):
            decode(spelled)
        # Non-canonical spellings (upper case) are text on the wire and decode.
        upper = Checkpoint(sequence=1, state_digest="AB" * 32, replica_id="r", mode=0)
        assert decode(encode(upper)).state_digest == "AB" * 32

    def test_a_dict_with_a_repeated_key_is_rejected(self):
        once = pack_value({"k": 1})
        assert once.startswith(b"D\x01\x00\x00\x00")
        twice = b"D\x02\x00\x00\x00" + once[5:] * 2
        with pytest.raises(WireDecodeError, match="duplicate dict key"):
            decode(self._request_with_arg(twice))
        # 1 and True are one key to a dict, so they repeat too.
        clash = b"D\x02\x00\x00\x00" + pack_value(1) + b"N" + pack_value(True) + b"N"
        with pytest.raises(WireDecodeError, match="duplicate dict key"):
            decode(self._request_with_arg(clash))

    @given(value=st.dictionaries(st.one_of(TEXT, st.integers()), VALUES, max_size=4))
    def test_dict_values_round_trip(self, value):
        request = Request(Operation("op", (value,)), timestamp=1, client_id="c")
        assert decode(encode(request)).operation.args == (value,)
        assert encode(request).endswith(pack_value(value) + b"\x00" * 4)


# ---------------------------------------------------------------------------
# grouped replies: one reply per client per executed slot
# ---------------------------------------------------------------------------

GOLDEN = json.loads((Path(__file__).resolve().parent / "data" / "wire_golden.json").read_text())
GOLDEN_REPLY = GOLDEN["Reply"]

RESULTS = st.one_of(
    st.none(),
    st.integers(),
    TEXT,
    st.dictionaries(IDENTIFIER, st.one_of(st.integers(), TEXT, st.booleans()), max_size=3),
)


@st.composite
def grouped_replies(draw, min_entries=1):
    """A reply answering 1-32 distinct timestamps, each with its own result."""
    timestamps = draw(st.lists(I64, min_size=min_entries, max_size=32, unique=True))
    (first, result), *more = [(timestamp, draw(RESULTS)) for timestamp in timestamps]
    return Reply(
        mode=draw(I64),
        view=draw(I64),
        timestamp=first,
        client_id=draw(IDENTIFIER),
        replica_id=draw(IDENTIFIER),
        result=result,
        more=tuple(more),
    )


def reply_frame(more, timestamp=7):
    return encode_reply(1, 2, timestamp, "client-0", "p0", "ab" * 32, more)


class TestGroupedReplyFrames:
    @given(reply=grouped_replies())
    @settings(derandomize=True, max_examples=200)
    def test_a_grouped_frame_decodes_to_what_reencodes_it(self, reply):
        frame = encode(reply)
        twin = decode(frame)
        assert encode(twin) == frame
        assert digest_of(twin) == digest_of(reply)
        assert [(timestamp, key) for timestamp, _, key in twin.entries()] == [
            (timestamp, key) for timestamp, _, key in reply.entries()
        ]

    @given(reply=grouped_replies(min_entries=2), data=st.data())
    @settings(derandomize=True, max_examples=200)
    def test_a_cut_inside_the_tail_is_rejected(self, reply, data):
        """Only a cut at the first entry's end decodes: a different, one-entry frame."""
        frame = encode(reply)
        head = len(encode(Reply(reply.mode, reply.view, reply.timestamp, reply.client_id,
                                reply.replica_id, reply.result)))
        cut = data.draw(st.integers(min_value=head, max_value=len(frame) - 1))
        if cut == head:
            assert digest_bytes(frame[:cut]) != digest_bytes(frame)
            return
        with pytest.raises(WireDecodeError):
            decode(frame[:cut])

    def test_a_one_entry_frame_is_the_golden_reply_frame(self):
        reply = Reply(1, 2, 7, "client-0", "p0", {"ok": True, "value": 1}, more=())
        assert encode(reply).hex() == GOLDEN_REPLY["frame"]
        assert digest_of(reply) == GOLDEN_REPLY["digest"]
        assert reply.wire_size() == Reply.SIZE
        assert decode(bytes.fromhex(GOLDEN_REPLY["frame"])).more == ()

    def test_further_entries_add_to_the_modeled_size(self):
        payload = {"ok": True, "payload": "x" * 10}
        reply = Reply(1, 2, 7, "client-0", "p0", payload, more=((8, payload), (9, None)))
        assert reply.wire_size() == Reply.SIZE + 10 + 4 + (40 + 10) + 40

    def test_a_repeated_timestamp_is_rejected(self):
        with pytest.raises(WireDecodeError, match="timestamp 8 twice"):
            decode(reply_frame([(8, "cd" * 32), (8, "cd" * 32)]))
        with pytest.raises(WireDecodeError, match="timestamp 7 twice"):
            decode(reply_frame([(7, "cd" * 32)]))

    def test_an_empty_tail_is_rejected(self):
        with pytest.raises(WireDecodeError, match="empty tail"):
            decode(reply_frame(()) + _U32.pack(0))

    def test_a_truncated_entry_is_rejected(self):
        frame = reply_frame([(8, "cd" * 32), (9, "ef" * 32)])
        for cut in (1, 32, 33, 33 + 1, 33 + 8):
            with pytest.raises(WireDecodeError, match="truncated"):
                decode(frame[:-cut])
        # A count promising more entries than follow.
        one = reply_frame([(8, "cd" * 32)])
        tail = len(one) - len(reply_frame(()))
        count_at = len(one) - tail
        with pytest.raises(WireDecodeError, match="truncated"):
            decode(one[:count_at] + _U32.pack(2) + one[count_at + 4 :])


# ---------------------------------------------------------------------------
# decoder parity: generated decoders against the constructor and the readers
# ---------------------------------------------------------------------------

PARITY_CLASSES = sorted(codec.REGISTRY.values(), key=lambda cls: cls.TAG)


def keyword_built(decoded):
    """The message the keyword constructor builds from ``decoded``'s frame fields."""
    cls = type(decoded)
    framed = {field.name for field in codec.frame_fields(cls)}
    params = inspect.signature(cls).parameters
    given = {}
    for field in cls.FIELDS:
        if field.name in framed:
            given[field.name] = getattr(decoded, field.name)
        elif params[field.name].default is inspect.Parameter.empty:
            given[field.name] = None
    return cls(**given)


def assert_decodes_as_constructed(cls, frame):
    """``from_buffer`` builds what the constructor would, in any window, fresh each time."""
    decoded = cls.from_buffer(frame, 0, len(frame))
    built = keyword_built(decoded)
    assert type(decoded) is type(built) is cls
    assert list(decoded.__dict__.items()) == list(built.__dict__.items())
    padded = b"\xff" * 3 + frame + b"\x00" * 40
    again = cls.from_buffer(padded, 3, 3 + len(frame))
    assert again.__dict__ == decoded.__dict__
    for name, value in decoded.__dict__.items():
        if isinstance(value, (list, dict)):
            assert again.__dict__[name] is not value, f"{name} is shared between decodes"
    assert encode(decoded) == frame
    return decoded


def field_values(field):
    """Values for one constructor argument of a registered class, by its kind."""
    kind = field.kind
    if kind is codec.I64:
        return I64
    if kind is codec.STR:
        return st.one_of(IDENTIFIER, TEXT)
    if kind is codec.DIGEST:
        return DIGEST
    if kind is codec.ENTRIES:
        return st.lists(st.builds(codec.Entry, I64, I64, DIGEST), max_size=3)
    if kind in (codec.PAYLOAD, codec.ATTACHMENT):
        return st.none()
    if kind is Request.FIELDS[0].kind:
        return OPERATIONS
    if kind is Batch.FIELDS[0].kind:
        return st.lists(REQUESTS, min_size=1, max_size=3)
    raise AssertionError(f"no values for the kind of field {field.name!r}")


def messages_of(cls):
    if cls is Reply:  # its ``more`` entries answer distinct timestamps
        return st.one_of(REPLIES, grouped_replies())
    return st.builds(cls, **{field.name: field_values(field) for field in cls.FIELDS})


def first_tail_field_of_kind(kind):
    """``(cls, head size)`` of the classes whose first field after the head has ``kind``."""
    found = []
    for cls in PARITY_CLASSES:
        framed = codec.frame_fields(cls)
        head = [field for field in framed if field.kind.head]
        if len(framed) > len(head) and framed[len(head)].kind is kind:
            found.append(pytest.param(cls, 1 + 8 * len(head), id=cls.__name__))
    assert found
    return found


#: Bytes from a string field's offset: each is rejected by ``read_str``.
BAD_STRINGS = {
    "truncated-length-prefix": b"\x05\x00",
    "no-length-prefix": b"",
    "length-past-end": _U32.pack(10) + b"abc",
    "length-past-a-huge-end": _U32.pack(2**32 - 1) + b"abc",
    "invalid-utf8": _U32.pack(2) + b"\xff\xfe",
    "truncated-utf8": _U32.pack(1) + "é".encode("utf-8")[:1],
}

#: Bytes from a digest field's offset: each is rejected by ``read_digest``.
BAD_DIGESTS = {
    "no-flag-byte": b"",
    "packed-with-31-bytes": b"\x01" + b"\xab" * 31,
    "packed-with-no-bytes": b"\x01",
    "spelled-out-canonical": b"\x00" + _U32.pack(64) + b"ab" * 32,
    "spelled-out-truncated-length": b"\x00\x01",
    "spelled-out-length-past-end": b"\x00" + _U32.pack(9) + b"abc",
    "spelled-out-invalid-utf8": b"\x00" + _U32.pack(1) + b"\xff",
    "garbled-flag": b"\x7f" + b"\x00" * 40,
}


class TestDecoderParity:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_every_golden_frame_decodes_as_constructed(self, name):
        frame = bytes.fromhex(GOLDEN[name]["frame"])
        cls = codec.REGISTRY[frame[0]]
        assert cls.__name__ == name
        assert_decodes_as_constructed(cls, frame)

    @pytest.mark.parametrize("cls", PARITY_CLASSES, ids=lambda cls: cls.__name__)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_registered_class_decodes_as_constructed(self, cls, data):
        message = data.draw(messages_of(cls))
        decoded = assert_decodes_as_constructed(cls, encode(message))
        for field in codec.frame_fields(cls):
            if field.kind in (codec.I64, codec.STR, codec.DIGEST):
                assert getattr(decoded, field.name) == getattr(message, field.name)

    @given(message=HOT_MESSAGES)
    def test_every_hot_message_decodes_as_constructed(self, message):
        assert_decodes_as_constructed(type(message), encode(message))

    @staticmethod
    def assert_same_rejection(cls, head_size, tail, reader):
        frame = bytes([cls.TAG]) + b"\x00" * (head_size - 1) + tail
        # Bytes past ``end`` must never be read: a missing bound would find them.
        padded = frame + b"\x01" + b"\x00" * 64
        with pytest.raises(WireDecodeError) as expected:
            reader(padded, head_size, len(frame))
        with pytest.raises(WireDecodeError) as inline:
            cls.from_buffer(padded, 0, len(frame))
        assert str(inline.value) == str(expected.value)

    @pytest.mark.parametrize("tail", BAD_STRINGS.values(), ids=list(BAD_STRINGS))
    @pytest.mark.parametrize("cls,head_size", first_tail_field_of_kind(codec.STR))
    def test_an_inline_string_read_fails_as_read_str_does(self, cls, head_size, tail):
        self.assert_same_rejection(cls, head_size, tail, read_str)

    @pytest.mark.parametrize("tail", BAD_DIGESTS.values(), ids=list(BAD_DIGESTS))
    @pytest.mark.parametrize("cls,head_size", first_tail_field_of_kind(codec.DIGEST))
    def test_an_inline_digest_read_fails_as_read_digest_does(self, cls, head_size, tail):
        self.assert_same_rejection(cls, head_size, tail, read_digest)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
