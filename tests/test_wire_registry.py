"""Registry-driven tests: every declared message class, with no hand-kept list.

* **round trip** — for every class in the wire registry, an instance built
  from its own field list survives ``decode(encode(m))`` byte for byte and
  ``decode_envelope(encode_envelope(m))`` with its signature, piggybacked
  payloads (view-change entries carrying batches included), inner client
  signatures and snapshot;
* **connection forms** — the same for both envelope variants of a connection
  (piggybacked payloads in full, then as references into the payload table)
  and for any ``Signature`` value, of which exactly the canonical ones take
  the 33-byte form;
* **golden frames** — the ten hot types reproduce, byte for byte, frames and
  digests recorded from the commit *before* messages were derived from one
  declaration (``tests/data/wire_golden.json``);
* **README table** — the "Binary wire format" table is the registry's own
  rendering, so it cannot drift;
* **hostile envelopes** — the retired pickle kind is rejected without
  executing anything, a slot beside a frame takes only what its field
  declares, and a length inside a piggybacked frame cannot reach past it.
"""

import json
import pickle
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.baselines.messages  # noqa: F401 - registers the baseline classes
from repro.core import messages as core
from repro.crypto.digest import digest_of
from repro.crypto.keys import KeyStore
from repro.crypto.signatures import Signature
from repro.runtime.aio import _PayloadTable, decode_envelope, encode_envelope
from repro.smr.messages import Batch, ProtocolMessage, Reply, Request
from repro.smr.state_machine import Operation
from repro.wire import codec
from repro.wire.codec import REGISTRY, Entry, decode, encode, format_table, frame_fields

ROOT = Path(__file__).resolve().parent.parent
HEX = "0123456789abcdef" * 4

KEYS = KeyStore()
for _node in ("client-0", "client-1", "p0"):
    KEYS.register(_node)


def signed_request(timestamp=7, client="client-0", operation=None):
    operation = operation or Operation("put", ("k", 1, 2.5, None, True, (1, "a"), [b"x"]), "pay")
    request = Request(operation=operation, timestamp=timestamp, client_id=client)
    return request.sign(KEYS.signer_for(client))


def signed_batch():
    return Batch(requests=[signed_request(1), signed_request(2, "client-1")])


SNAPSHOT = {
    "next_sequence": 11,
    "state": {"data": {"k": "v"}, "staged": {"t1": [["put", "k", "v"]]}, "committed": 3},
    "replies": {("client-0", 7): {"ok": True, "value": None}},
}


def sample(field, index):
    """A value for ``field``, chosen by its kind alone."""
    kind = field.kind
    if kind is codec.I64:
        return 3 + index
    if kind is codec.STR:
        return f"node-{index}"
    if kind is codec.DIGEST:
        return HEX
    if kind is codec.PAYLOAD:
        return signed_batch()
    if kind is codec.ATTACHMENT:
        return SNAPSHOT
    if kind is codec.ENTRIES:
        return [
            Entry(1, 0, HEX, signed_batch()),
            Entry(2, 0, "synthetic", signed_request()),
            Entry(3, 1, HEX, None),
        ]
    if kind is Request.FIELDS[0].kind:
        return Operation("put", ("k", {"nested": (1, [2])}), "payload")
    if kind is Reply.FIELDS[5].kind:
        return {"ok": True, "value": 1}
    if kind is Reply.FIELDS[6].kind:
        return ((40 + index, {"ok": True, "value": 2}), (41 + index, None))
    if kind is Batch.FIELDS[0].kind:
        return signed_batch().requests
    raise AssertionError(f"no sample for the kind of field {field.name!r}")


def instance_of(cls):
    """A signed instance: one that carries a signature is signed, whatever its class's default."""
    fields = {field.name: sample(field, i) for i, field in enumerate(cls.FIELDS)}
    return cls(**fields, signed=True).sign(KEYS.signer_for("p0"))


def beside(message):
    """Everything that rides beside ``message``'s frame, comparably."""
    items = []
    for item in message.detached():
        if isinstance(item, ProtocolMessage):
            item = (encode(item), item.signature, beside(item))
        items.append(item)
    return items


REGISTERED = sorted(REGISTRY.items())


def test_all_three_message_modules_are_registered():
    assert len(REGISTERED) == 17
    assert 0x26 not in REGISTRY  # BaselineCheckpoint retired: the BFT baselines send Checkpoint
    # BftPrePrepare / BftPrepare / BftCommit retired: the BFT baselines send
    # PrePrepare / ProxyPrepare / Commit, which Peacock sends too.
    assert not {0x23, 0x24, 0x25} & set(REGISTRY)
    # AcceptRequest / Accepted / Learn retired: Paxos sends Lion's Prepare /
    # Accept / Commit unsigned; BaselineNewView retired: the baselines send NewView.
    assert not {0x20, 0x21, 0x22, 0x28} & set(REGISTRY)
    assert {cls.__module__ for _, cls in REGISTERED} == {
        "repro.smr.messages",
        "repro.core.messages",
        "repro.baselines.messages",
    }


@pytest.mark.parametrize("tag,cls", REGISTERED, ids=[cls.__name__ for _, cls in REGISTERED])
class TestEveryRegisteredClass:
    def test_frame_round_trip_is_field_identical(self, tag, cls):
        message = instance_of(cls)
        frame = encode(message)
        assert frame[0] == tag == cls.TAG
        twin = decode(frame)
        assert type(twin) is cls
        assert twin.signing_content() == message.signing_content()
        assert encode(twin) == frame
        assert digest_of(twin) == digest_of(message)
        for field in frame_fields(cls):
            if field.kind in (codec.I64, codec.STR, codec.DIGEST):
                assert getattr(twin, field.name) == getattr(message, field.name)
        # Signatures and detached parts ride beside the frame, never in it.
        assert twin.signature is None
        assert not any(twin.detached())

    def test_envelope_round_trip_keeps_signature_and_detached_parts(self, tag, cls):
        message = instance_of(cls)
        twin = decode_envelope(encode_envelope(message))
        assert type(twin) is cls
        assert twin.signature == message.signature
        assert twin.verify(KEYS.verifier(), expected_signer="p0")
        assert encode(twin) == encode(message)
        assert beside(twin) == beside(message)
        assert twin.cached_wire_size() == message.cached_wire_size()

    def test_every_strict_prefix_of_the_envelope_is_rejected(self, tag, cls):
        blob = encode_envelope(instance_of(cls))
        for cut in range(0, len(blob), max(1, len(blob) // 40)):
            with pytest.raises(ValueError):
                decode_envelope(blob[:cut])


    def test_both_variants_round_trip_over_a_connection(self, tag, cls):
        """As ``p0``'s connection carries it: in full, then by reference."""
        message, table = instance_of(cls), _PayloadTable()
        payloads = [item for item in message.detached() if isinstance(item, ProtocolMessage)]
        full = encode_envelope(message, "p0")
        assert len(full) < len(encode_envelope(message)) - 100  # p0's own signature: 33 bytes
        first = decode_envelope(full, "p0", table)
        assert set(table.entries) == {digest_of(item) for item in payloads}
        referenced = encode_envelope(message, "p0", referenced=True)
        assert (len(referenced) < len(full)) == bool(payloads)
        second = decode_envelope(referenced, "p0", table)
        for twin in (first, second):
            assert type(twin) is cls
            assert twin.signature == message.signature
            assert twin.verify(KEYS.verifier(), expected_signer="p0")
            assert encode(twin) == encode(message)
            assert beside(twin) == beside(message)
        resolved = [item for item in second.detached() if isinstance(item, ProtocolMessage)]
        assert len(resolved) == len(payloads)
        for item in resolved:  # the objects the first envelope brought, not copies
            assert any(item is brought for brought in first.detached())


TAG = "0123456789abcdef" * 4
FRAME_DIGEST = "<the digest of the frame it rides beside>"
SIGNATURES = st.none() | st.builds(
    Signature,
    st.sampled_from(["p0", "client-0", "someone-else", ""]),
    st.sampled_from([FRAME_DIGEST, HEX, "synthetic", ""]),
    st.sampled_from([TAG, TAG.upper(), TAG[:-2], TAG[:-2] + "  ", "zz" * 32, "é" * 64, ""])
    | st.text(max_size=70),
)


def _beside(message, signature):
    """``signature`` as drawn, its digest placeholder resolved against ``message``."""
    if signature is not None and signature.payload_digest == FRAME_DIGEST:
        signature = Signature(signature.signer_id, digest_of(message), signature.tag)
    message.signature = signature
    return signature


def _bytes_on_the_wire(signature, signer, message):
    """Beyond the form byte: 32 for the canonical shape, everything spelled out otherwise."""
    if signature is None:
        return 0, False
    if (
        signature.signer_id == signer
        and signature.payload_digest == digest_of(message)
        and re.fullmatch("[0-9a-f]{64}", signature.tag)
    ):
        return 32, True
    fields = (signature.signer_id, signature.payload_digest, signature.tag)
    return 6 + sum(len(field.encode("utf-8")) for field in fields), False


@settings(derandomize=True, deadline=None, max_examples=300)
@given(outer=SIGNATURES, inner=SIGNATURES)
def test_any_signature_round_trips_and_exactly_the_canonical_ones_go_compact(outer, inner):
    """Top level the signer must be the connection's sender, nested the request's own client."""
    request = Request(Operation("get", ("k",)), timestamp=7, client_id="client-0")
    message = core.Prepare(1, 2, digest_of(request), request, 1)
    bare = len(encode_envelope(message, "p0"))
    inner, outer = _beside(request, inner), _beside(message, outer)
    blob = encode_envelope(message, "p0")
    twin = decode_envelope(blob, "p0")
    assert twin.signature == outer and twin.request.signature == inner
    assert encode_envelope(twin, "p0") == blob
    outer_bytes, outer_compact = _bytes_on_the_wire(outer, "p0", message)
    inner_bytes, inner_compact = _bytes_on_the_wire(inner, "client-0", request)
    assert len(blob) == bare + outer_bytes + inner_bytes
    # Without a connection nobody is named top level; the request still names its client.
    assert len(encode_envelope(message)) - len(blob) > 100 or not outer_compact
    assert decode_envelope(encode_envelope(message)).signature == outer
    if outer_compact:
        with pytest.raises(ValueError):
            decode_envelope(blob)


def test_view_change_entries_carry_their_batches_and_client_signatures():
    """What nothing round-tripped before: P/C entries with batch payloads."""
    for cls in (core.ViewChange, core.NewView):
        twin = decode_envelope(encode_envelope(instance_of(cls)))
        entries = [
            entry
            for field in cls.FIELDS
            if field.kind is codec.ENTRIES
            for entry in getattr(twin, field.name)
        ]
        assert len(entries) == 6
        batch = entries[0].request
        assert isinstance(batch, Batch) and len(batch) == 2
        for request in batch.requests:
            assert request.verify(KEYS.verifier(), expected_signer=request.client_id)
        assert entries[1].request.verify(KEYS.verifier(), expected_signer="client-0")
        assert entries[2].request is None


def golden_instances():
    first = Request(
        operation=Operation("put", ("k", 1, 2.5, None, True, (1, "a"), [b"x"]), "payload"),
        timestamp=7,
        client_id="client-0",
    )
    second = Request(operation=Operation("get", ("k",)), timestamp=-8, client_id="client-é")
    return {
        "Request": first,
        "Batch": Batch(requests=[first, second]),
        "Reply": Reply(1, 2, 7, "client-0", "p0", {"ok": True, "value": 1}),
        "Prepare": core.Prepare(1, 2, HEX, first, 1),
        "Accept": core.Accept(1, 2, HEX, "p1", 1, signed=False),
        "Commit": core.Commit(1, 2, HEX, "p0", 1, request=first),
        "PrePrepare": core.PrePrepare(3, 4, HEX, first, 3),
        "ProxyPrepare": core.ProxyPrepare(3, 4, "synthetic-digest", "u1", 3),
        "Inform": core.Inform(3, 4, HEX, "u2", 2),
        "Checkpoint": core.Checkpoint(128, HEX, "p0", 1),
    }


def test_hot_frames_and_digests_match_the_golden_fixture():
    """``wire_golden.json`` was generated at the parent commit (hand-written
    encoders) from exactly these instances; the derived encoders must
    reproduce every frame and digest byte for byte."""
    golden = json.loads((ROOT / "tests" / "data" / "wire_golden.json").read_text())
    instances = golden_instances()
    assert sorted(golden) == sorted(instances)
    for name, message in instances.items():
        assert encode(message).hex() == golden[name]["frame"], name
        assert digest_of(message) == golden[name]["digest"], name
        # ... and the derived decoders must read every recorded frame back to a
        # message that re-encodes and digests to the same bytes.
        twin = decode(bytes.fromhex(golden[name]["frame"]))
        assert type(twin) is type(message), name
        assert encode(twin).hex() == golden[name]["frame"], name
        assert digest_of(twin) == golden[name]["digest"], name


def test_readme_wire_table_is_the_registrys_own_rendering():
    readme = (ROOT / "README.md").read_text()
    assert format_table() in readme, (
        "README 'Binary wire format' table drifted from the registry; paste the output of "
        "repro.wire.codec.format_table() (all three message modules imported)"
    )
    for tag, cls in REGISTERED:
        assert f"| 0x{tag:02x} | `{cls.__name__}` |" in readme


class _Detonator:
    fired = False

    def __reduce__(self):
        return (_detonate, ())


def _detonate():
    _Detonator.fired = True


def test_pickle_kind_envelope_is_rejected_without_executing_anything():
    """Kind 0x02 used to be ``pickle.loads`` on bytes read from a socket."""
    blob = b"\x02" + pickle.dumps(_Detonator())
    with pytest.raises(ValueError):
        decode_envelope(blob)
    assert not _Detonator.fired
    pickle.loads(blob[1:])  # the payload itself is live: the rejection is what saved us
    assert _Detonator.fired


@pytest.mark.parametrize("blob", [b"", b"\x00", b"\x01", b"\x07junk", b"\x01\xff\xff\xff\xff"])
def test_malformed_envelopes_raise_value_error(blob):
    with pytest.raises(ValueError):
        decode_envelope(blob)


def test_nested_tuple_frame_is_rejected_inside_an_envelope():
    honest = encode(Request(Operation("op", (None,)), timestamp=1, client_id="c"))
    bomb = honest.replace(b"N", b"U\x01\x00\x00\x00" * 5000 + b"N")
    blob = b"\x01" + len(bomb).to_bytes(4, "little") + bomb + b"\x00" + b"\x00\x00"
    with pytest.raises(ValueError):
        decode_envelope(blob)


def test_a_piggybacked_message_may_not_carry_messages_of_its_own():
    """Envelope nesting is one level deep, so hostile input cannot recurse."""
    inner = core.Prepare(1, 2, HEX, signed_request(), 1)
    outer = core.Prepare(1, 2, HEX, inner, 1)
    with pytest.raises(ValueError):
        decode_envelope(encode_envelope(outer))


def test_a_length_inside_a_piggybacked_frame_cannot_reach_past_the_frame():
    """Confinement: the inner request's payload length is raised to run into
    the client signature that follows the frame; every outer length is as sent."""
    request = signed_request(operation=Operation("put", ("k",), "pay"))
    blob = encode_envelope(core.Prepare(1, 2, HEX, request, 1).sign(KEYS.signer_for("p0")))
    length_at = blob.index(b"\x03\x00\x00\x00pay")
    assert blob[length_at + 7] == 2  # the signature's form byte (compact) follows the frame
    forged = blob[:length_at] + b"\x0b" + blob[length_at + 1 :]
    with pytest.raises(codec.WireDecodeError):
        decode_envelope(forged)


class TestSlotsTakeOnlyWhatTheirFieldDeclares:
    """The parts beside a frame are unsigned, so each slot checks what it is handed.

    A ``Reply`` in a payload slot used to pass ``digest == request_digest(request)``,
    be filed by ``prepare_slot`` under its ``(client_id, timestamp)``, and raise
    ``AttributeError`` in ``commit_slot`` on every correct replica.
    """

    def rejected(self, message):
        with pytest.raises(ValueError):
            decode_envelope(encode_envelope(message))

    def test_a_reply_is_not_an_ordering_messages_payload(self):
        reply = Reply(1, 0, 7, "client-0", "p0", {"ok": True}).sign(KEYS.signer_for("p0"))
        forged = core.PrePrepare(0, 1, digest_of(reply), reply, 3).sign(KEYS.signer_for("p0"))
        self.rejected(forged)
        self.rejected(core.Commit(0, 1, digest_of(reply), "p0", 1, request=reply))

    def test_a_plain_value_is_not_a_payload(self):
        self.rejected(core.Prepare(1, 2, HEX, {"operation": "put"}, 1))
        self.rejected(core.ViewChange(**self.view_change(prepared=[Entry(1, 0, HEX, "text")])))

    def test_a_view_change_entry_carries_a_request_or_a_batch_only(self):
        reply = Reply(1, 0, 7, "client-0", "p0", {"ok": True})
        self.rejected(core.ViewChange(**self.view_change(committed=[Entry(1, 0, HEX, reply)])))

    def test_a_message_is_not_a_client_signature(self):
        batch = signed_batch()
        batch.requests[1].signature = signed_request(9)
        self.rejected(batch)

    def test_a_message_or_a_signature_is_not_a_snapshot(self):
        (field,) = [f for f in core.StateTransferResponse.FIELDS if f.kind is codec.ATTACHMENT]
        for intruder in (signed_request(), signed_request().signature):
            message = instance_of(core.StateTransferResponse)
            setattr(message, field.name, intruder)
            self.rejected(message)

    @staticmethod
    def view_change(**entries):
        fields = {f.name: sample(f, i) for i, f in enumerate(core.ViewChange.FIELDS)}
        for field in core.ViewChange.FIELDS:
            if field.kind is codec.ENTRIES:
                fields[field.name] = entries.get(field.name, [])
        return fields
