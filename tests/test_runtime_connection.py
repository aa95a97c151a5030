"""What an aio connection keeps: the receive buffer, the payload table, the re-dial delay.

Socket-free except for the decode count and the frame retention at the end (real
Lion, Dog and Peacock runs).  The
inbound and outbound Protocol objects are driven by hand, as in
``test_runtime_transport.py``, whose harness this file borrows.
"""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.adaptive.evidence import EvidenceKind
from repro.cluster.wiring import ShardSpec, new_keystore, wire_group
from repro.core import BatchPolicy, Mode
from repro.core import messages as core
from repro.crypto.digest import digest_bytes, digest_of
from repro.crypto.signatures import Signature
from repro.runtime import aio
from repro.runtime.aio import (
    PAYLOAD_TABLE_BYTES,
    PAYLOAD_TABLE_ENTRIES,
    REDIAL_MAX_DELAY_S,
    AioRuntime,
    UnresolvedReference,
    decode_envelope,
    encode_envelope,
)
from repro.runtime.conformance import AIO_CLIENT_TIMEOUT, AIO_REQUEST_TIMEOUT
from repro.net.topology import Placement
from repro.smr import client as smr_client
from repro.smr.messages import _WIRE_SLICE_ATTR, Batch, Request, requests_of
from repro.smr.state_machine import Operation
from repro.wire import primitives
from repro.workload.client_pool import ClientPool
from repro.workload.generator import Workload
from test_runtime_transport import (
    HELLO,
    KEYS,
    _accepted,
    _aio_oracle,
    _framed,
    _RecordingTransport,
    _Ticker,
    _ticking_runtime,
)


def _request(timestamp, payload=""):
    request = Request(Operation("put", ("k",), payload), timestamp=timestamp, client_id="client-0")
    return request.sign(KEYS.signer_for("client-0"))


def _prepare(request, sequence=1):
    message = core.Prepare(0, sequence, digest_of(request), request, Mode.LION.value)
    return message.sign(KEYS.signer_for("p0"))


def _commit(request, sequence=1):
    message = core.Commit(0, sequence, digest_of(request), "p0", Mode.LION.value, request=request)
    return message.sign(KEYS.signer_for("p0"))


class _Pair:
    """A dialling channel and the listener its writes are fed to, no socket between."""

    def __init__(self):
        self.runtime, self.ticker = _ticking_runtime()
        self.connect()

    def connect(self):
        """A new accepted connection; the channel learns of it on its next ``flush``."""
        self.listening, self.sink, self.accepted, self.inbound = _accepted()
        self.wire = _RecordingTransport()
        self.fed = 0

    @property
    def channel(self):
        return self.runtime._channels["p0", "sink"]

    def send(self, message):
        """Send, flush, and hand the listener what was written; the envelope sizes written."""
        self.runtime.transport.deliver("p0", "sink", message, 0)
        self.ticker.run()
        if self.channel.transport is None:
            self.channel.connection_made(self.wire)
        written = self.wire.writes[self.fed :]
        self.fed = len(self.wire.writes)
        for data in written:
            self.inbound.data_received(data)
        return written

    def keys(self):
        return list(self.channel.shipped.entries), list(self.inbound.carried.entries)


# -- (b) the two tables hold the same keys in the same order, whatever is shipped ----------


class TestPayloadTable:
    def test_a_payload_shipped_once_rides_as_its_digest_afterwards(self):
        pair, request = _Pair(), _request(1)
        (full,) = pair.send(_prepare(request))
        (referenced,) = pair.send(_commit(request))
        assert request.wire_slice() in full and request.wire_slice() not in referenced
        assert bytes.fromhex(digest_of(request)) in referenced
        (_, prepare), (_, commit) = pair.sink.received
        assert commit.request is prepare.request
        assert commit.verify(KEYS.verifier(), expected_signer="p0")
        assert commit.request.verify(KEYS.verifier(), expected_signer="client-0")
        assert pair.keys() == ([digest_of(request)], [digest_of(request)])

    def test_an_equal_but_different_object_goes_in_full(self):
        """Beside the frame rides the client signature, which the digest does not cover."""
        pair = _Pair()
        pair.send(_prepare(_request(1)))
        twin = _request(1)
        twin.signature = Signature("client-0", digest_of(twin), "00" * 32)
        pair.send(_commit(twin))
        (_, prepare), (_, commit) = pair.sink.received
        assert commit.request is not prepare.request
        assert commit.request.signature == twin.signature
        assert not commit.request.verify(KEYS.verifier())

    def test_the_oldest_entry_is_evicted_first_and_then_goes_in_full_again(self):
        pair = _Pair()
        requests = [_request(n) for n in range(PAYLOAD_TABLE_ENTRIES + 1)]
        for sequence, request in enumerate(requests):
            pair.send(_prepare(request, sequence))
            sender_keys, receiver_keys = pair.keys()
            assert sender_keys == receiver_keys
        assert len(sender_keys) == PAYLOAD_TABLE_ENTRIES
        assert digest_of(requests[0]) not in sender_keys
        (again,) = pair.send(_commit(requests[0]))
        assert requests[0].wire_slice() in again
        (recent,) = pair.send(_commit(requests[-1]))
        assert requests[-1].wire_slice() not in recent
        assert pair.runtime.frames_rejected == pair.listening.frames_rejected == 0
        assert len(pair.sink.received) == PAYLOAD_TABLE_ENTRIES + 3

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(
        st.lists(
            st.tuples(st.integers(0, 11), st.sampled_from((0, 3_000, 90_000, 400_000))),
            min_size=1,
            max_size=60,
        )
    )
    def test_both_tables_agree_after_any_sequence_of_ships_and_reships(self, steps):
        """Mixed frame sizes, so the byte bound evicts as well as the entry bound."""
        pair, requests = _Pair(), {}
        for sequence, (index, size) in enumerate(steps):
            request = requests.setdefault(index, _request(index, "x" * size))
            pair.send((_prepare if sequence % 3 else _commit)(request, sequence))
            sender_keys, receiver_keys = pair.keys()
            assert sender_keys == receiver_keys
            assert pair.channel.shipped.frame_bytes == pair.inbound.carried.frame_bytes
            assert pair.inbound.carried.frame_bytes <= PAYLOAD_TABLE_BYTES
        assert not pair.accepted.closed and pair.listening.frames_rejected == 0
        assert len(pair.sink.received) == len(steps)
        for _, message in pair.sink.received:
            assert digest_of(message.request) == message.digest


# -- (c) a peer that lies or has lost step ------------------------------------------------


class TestReferencesThatDoNotResolve:
    def referenced(self, request):
        return _framed(encode_envelope(_commit(request), "evil", referenced=True))

    def test_a_reference_never_defined_on_this_connection_hangs_up(self):
        runtime, sink, transport, inbound = _accepted()
        valid = _framed(encode_envelope(_request(1)))
        inbound.data_received(HELLO + valid + self.referenced(_request(2)) + valid)
        assert transport.closed and sink.timestamps == [1]
        assert runtime.frames_rejected == 1
        assert not inbound.carried.entries

    def test_a_reference_after_the_listeners_table_was_cleared_hangs_up_and_the_sender_recovers(
        self,
    ):
        pair, request = _Pair(), _request(1)
        pair.send(_prepare(request))
        pair.send(_commit(request))
        pair.inbound.carried.clear()
        pair.send(_commit(request, 2))
        assert pair.accepted.closed and pair.listening.frames_rejected == 1
        assert len(pair.sink.received) == 2 and not pair.inbound.carried.entries

        pair.channel.connection_lost(None)
        assert not pair.channel.shipped.entries
        pair.connect()
        (written,) = pair.send(_commit(request, 3))
        assert written.startswith(b"\x02\x00p0") and request.wire_slice() in written
        ((_, commit),) = pair.sink.received
        assert commit.sequence == 3 and commit.request.timestamp == 1
        assert pair.keys() == ([digest_of(request)], [digest_of(request)])

    def test_a_reference_inside_a_piggybacked_message_is_rejected(self):
        runtime, sink, transport, inbound = _accepted()
        request = _request(1)
        inbound.data_received(HELLO + _framed(encode_envelope(_prepare(request), "evil")))
        blob = encode_envelope(_prepare(request, 2), "evil")
        at = blob.index(request.wire_slice()) + len(request.wire_slice())
        assert blob[at : at + 1] == b"\x02" and blob[-2:] == b"\x00\x00"  # signature, no items
        # The piggybacked request now claims one item, a reference; it declares none.
        nested = blob[:-2] + b"\x01\x00\x04" + bytes.fromhex(digest_of(request))
        inbound.data_received(_framed(nested))
        assert runtime.frames_rejected == 1 and not transport.closed
        assert len(sink.received) == 1 and len(inbound.carried.entries) == 1

    def test_a_truncated_reference_is_rejected(self):
        runtime, sink, transport, inbound = _accepted()
        request = _request(1)
        inbound.data_received(HELLO + _framed(encode_envelope(_prepare(request), "evil")))
        inbound.data_received(_framed(self.referenced(request)[4:-1]))
        assert runtime.frames_rejected == 1 and not transport.closed
        assert len(sink.received) == 1
        inbound.data_received(self.referenced(request))
        assert len(sink.received) == 2 and runtime.frames_rejected == 1

    def test_an_envelope_that_is_rejected_defines_nothing(self):
        runtime, sink, transport, inbound = _accepted()
        blob = encode_envelope(_prepare(_request(1)), "evil")
        inbound.data_received(HELLO + _framed(blob + b"\x00"))  # trailing byte
        assert runtime.frames_rejected == 1 and not inbound.carried.entries

    def test_without_a_table_a_reference_is_a_value_error(self):
        blob = encode_envelope(_commit(_request(1)), referenced=True)
        with pytest.raises(UnresolvedReference):
            decode_envelope(blob)
        assert issubclass(UnresolvedReference, ValueError)


# -- (d) what a reference resolves to is this connection's own -------------------------------


def test_two_listeners_fed_the_same_bytes_never_share_a_message_object():
    runtime = AioRuntime()
    first, second = _accepted(runtime), _accepted(runtime)
    request = _request(1)
    stream = HELLO + _framed(encode_envelope(_prepare(request), "evil"))
    stream += _framed(encode_envelope(_commit(request), "evil", referenced=True))
    for _, _, _, inbound in (first, second):
        inbound.data_received(stream)
    resolved = []
    for _, sink, _, inbound in (first, second):
        (_, prepare), (_, commit) = sink.received
        assert commit.request is prepare.request
        assert inbound.carried.get(digest_of(request)) is prepare.request
        resolved.append(commit.request)
    assert resolved[0] is not resolved[1] and resolved[0] is not request


# -- no verification weakened: what a bad signature leaves behind, over the envelope -------------


class TestBadSignaturesLeaveTheSameEvidence:
    """Whatever form it travels in, each fails the check it failed at the parent."""

    @pytest.fixture(autouse=True)
    def cluster(self):
        replicas, client = _aio_oracle(AioRuntime(), Mode.LION, num_requests=1, window=1)
        self.primary, self.replica, self.client = (
            replicas["private-0"], replicas["public-3"], client
        )

    def prepare(self, timestamp=1):
        request = Request(Operation("noop"), timestamp=timestamp, client_id=self.client.node_id)
        request.sign(self.client.signer)
        message = core.Prepare(0, timestamp, digest_of(request), request, Mode.LION.value)
        return message.sign(self.primary.signer)

    def received(self, message, sender="private-0"):
        """The replica's verdict on ``message`` as ``sender``'s connection brings it."""
        blob = encode_envelope(message, sender)
        compact = len(blob) < len(encode_envelope(message))
        twin = decode_envelope(blob, sender, aio._PayloadTable())
        assert twin.signature == message.signature
        assert twin.signature._tag_ok_by_secret is None  # no memo crosses the wire
        verdict = self.replica.verify_message(sender, twin)
        evidence = [(r.kind, r.suspect, r.detail) for r in self.replica.evidence.records]
        return verdict, compact, evidence

    def test_an_honest_signature_goes_compact_verifies_and_leaves_none(self):
        assert self.received(self.prepare()) == (True, True, [])

    def test_a_forged_signature(self):
        """Right signer, right digest, a tag made with another key: compact on the
        wire, and the tag is what fails, as it would spelled out."""
        message = self.prepare()
        message.signature = self.client.signer.forge(message, "private-0")
        assert self.received(message) == (
            False, True, [(EvidenceKind.INVALID_SIGNATURE, "private-0", "Prepare")]
        )

    def test_a_relayed_signature(self):
        """Signed by the primary, arriving on another replica's connection."""
        assert self.received(self.prepare(), sender="public-0") == (
            False, False, [(EvidenceKind.INVALID_SIGNATURE, "public-0", "Prepare")]
        )

    def test_a_signature_over_another_digest(self):
        message = self.prepare()
        message.signature = self.prepare(2).signature
        assert self.received(message) == (
            False, False, [(EvidenceKind.INVALID_SIGNATURE, "private-0", "Prepare")]
        )


class TestDogAcceptsKeepTheirSignatureOverTheWire:
    """A decoded message is signed iff its class signs by default or it carries a signature."""

    @pytest.fixture(autouse=True)
    def cluster(self):
        replicas, _ = _aio_oracle(AioRuntime(), Mode.DOG, num_requests=1, window=1)
        config = replicas["private-0"].config
        self.receiver, self.voter = (
            replicas[name] for name in sorted(config.proxy_set_of_view(0, Mode.DOG))[:2]
        )

    def accept(self, signed=True):
        accept = core.Accept(0, 1, "ab" * 32, self.voter.node_id, Mode.DOG.value, signed=signed)
        return accept.sign(self.voter.signer) if signed else accept

    def over_the_wire(self, message):
        sender = self.voter.node_id
        return decode_envelope(encode_envelope(message, sender), sender, aio._PayloadTable())

    def votes(self):
        slot = self.receiver.slots.existing_slot(1)
        return [] if slot is None else slot.voters(self.receiver.agreement.prepare_phase)

    def test_a_round_trip_keeps_signed(self):
        assert self.over_the_wire(self.accept()).signed
        assert not self.over_the_wire(self.accept(signed=False)).signed
        # Stripped of its signature, a prepare is still signed, and so fails to verify.
        stripped = _prepare(_request(1))
        stripped.signature = None
        assert self.over_the_wire(stripped).signed

    def test_an_honest_accept_over_the_wire_is_a_vote(self):
        self.receiver.handle_message(self.voter.node_id, self.over_the_wire(self.accept()))
        assert self.votes() == [self.voter.node_id]

    def test_an_accept_whose_tag_is_zeroed_is_no_vote_and_is_evidence(self):
        accept = self.accept()
        accept.signature = Signature(
            accept.signature.signer_id, accept.signature.payload_digest, "0" * 64
        )
        self.receiver.handle_message(self.voter.node_id, self.over_the_wire(accept))
        assert self.votes() == []
        assert [(r.kind, r.suspect, r.detail) for r in self.receiver.evidence.records] == [
            (EvidenceKind.INVALID_SIGNATURE, self.voter.node_id, "Accept")
        ]

    def test_an_unsigned_accept_from_a_current_proxy_is_no_vote(self):
        self.receiver.handle_message(self.voter.node_id, self.accept(signed=False))
        assert self.votes() == []


# -- the receive buffer ----------------------------------------------------------------------


def test_reading_a_small_frame_allocates_nothing_the_size_of_the_read_buffer():
    runtime, sink, transport, inbound = _accepted()
    stream = HELLO + _framed(encode_envelope(_request(1)))
    assert 150 <= len(stream) <= 250
    buffer = inbound.get_buffer(-1)
    assert buffer is inbound.get_buffer(65536) is _accepted(runtime)[3].get_buffer(-1)
    assert len(buffer) == aio.RECV_BUFFER_BYTES
    buffer[: len(stream)] = stream
    inbound.buffer_updated(len(stream))  # warm: the hello is parsed, the sender named
    tracemalloc.start()
    try:
        for _ in range(50):
            frame = stream[len(HELLO) :]
            buffer[: len(frame)] = frame
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            inbound.buffer_updated(len(frame))
            assert tracemalloc.get_traced_memory()[1] - before < 64 * 1024
    finally:
        tracemalloc.stop()
    assert len(sink.received) == 51


# -- re-dial with capped backoff -----------------------------------------------------------------


class _ClosedPort(_Ticker):
    """A loop with a clock the test moves and a ``create_connection`` that is refused."""

    def __init__(self):
        super().__init__()
        self.now = 100.0
        self.dials = []

    def time(self):
        return self.now

    async def create_connection(self, factory, host, port):
        self.dials.append(self.now)
        raise ConnectionRefusedError(host, port)


def _run_to_completion(coro):
    with pytest.raises(StopIteration):
        coro.send(None)


class TestRedialBackoff:
    def unreachable(self):
        runtime, loop = AioRuntime(), _ClosedPort()
        runtime._loop, runtime._spawn = loop, _run_to_completion
        runtime._install_endpoints({"sink": 1})
        return runtime, loop

    def test_a_thousand_sends_to_a_closed_port_in_one_second_dial_a_handful_of_times(self):
        """The parent dialled once per flush: a thousand times."""
        runtime, loop = self.unreachable()
        for n in range(1000):
            loop.now += 0.001
            runtime.transport.deliver("p0", "sink", _prepare(_request(n)), 0)
            loop.run()
        assert 2 <= len(loop.dials) <= 8, loop.dials
        gaps = [later - earlier for earlier, later in zip(loop.dials, loop.dials[1:])]
        assert gaps == sorted(gaps) and gaps[-1] > 4 * gaps[0]
        channel = runtime._channels["p0", "sink"]
        assert channel.pending == [] and not channel.shipped.entries  # dropped, as on the sim

    def test_the_delay_is_capped_and_a_connection_resets_it(self):
        runtime, loop = self.unreachable()
        send = runtime.transport.deliver
        for n in range(40):
            loop.now += 2 * REDIAL_MAX_DELAY_S
            send("p0", "sink", _request(n), 0)
            loop.run()
        assert len(loop.dials) == 40  # never waits longer than the cap
        channel = runtime._channels["p0", "sink"]
        assert channel._retry_delay == REDIAL_MAX_DELAY_S

        channel.connection_made(_RecordingTransport())
        loop.now += 2 * REDIAL_MAX_DELAY_S  # it lasts longer than the wait it ended
        channel.connection_lost(ConnectionResetError())
        send("p0", "sink", _request(41), 0)
        loop.run()
        assert len(loop.dials) == 41  # at once: the last connection was made, not refused
        send("p0", "sink", _request(42), 0)
        loop.run()
        assert len(loop.dials) == 41  # and refused again, it waits again

    def test_a_thousand_sends_to_a_listener_that_accepts_and_hangs_up_dial_a_handful_of_times(self):
        """The parent reset the back-off in ``connection_made``: the delay never grew past the
        first 10 ms (a hundred dials here; over a real socket, where the loss comes a tick
        after the dial returned, one nearly every tick)."""
        runtime, loop = self.unreachable()

        async def accept_then_close(factory, host, port):
            loop.dials.append(loop.now)
            channel = factory()
            channel.connection_made(_RecordingTransport())
            channel.connection_lost(None)

        loop.create_connection = accept_then_close
        for n in range(1000):
            loop.now += 0.001
            runtime.transport.deliver("p0", "sink", _prepare(_request(n)), 0)
            loop.run()
        assert 2 <= len(loop.dials) <= 8, loop.dials
        gaps = [later - earlier for earlier, later in zip(loop.dials, loop.dials[1:])]
        assert gaps == sorted(gaps) and gaps[-1] > 4 * gaps[0]
        # One doubling a drop: the dial and the loss it led to are one failure, not two.
        assert all(later < 2.5 * earlier for earlier, later in zip(gaps, gaps[1:]))
        channel = runtime._channels["p0", "sink"]
        assert channel.pending == [] and not channel.shipped.entries

        async def accept_and_keep(factory, host, port):
            loop.dials.append(loop.now)
            factory().connection_made(_RecordingTransport())

        loop.create_connection, dialled = accept_and_keep, len(loop.dials)
        loop.now += 2 * REDIAL_MAX_DELAY_S
        runtime.transport.deliver("p0", "sink", _request(1000), 0)
        loop.run()
        loop.now += 2 * channel._retry_delay  # outlives the wait it ended: a connection again
        channel.connection_lost(ConnectionResetError())
        runtime.transport.deliver("p0", "sink", _request(1001), 0)
        loop.run()
        assert len(loop.dials) == dialled + 2 and channel._retry_delay == 0.0


# -- decode counts are the protocol's, not the transport's ---------------------------------------


@pytest.mark.parametrize("mode", [Mode.LION, Mode.DOG, Mode.PEACOCK], ids=lambda mode: mode.name)
def test_a_fault_free_run_decodes_each_payload_once_per_replica(monkeypatch, mode):
    """100 unbatched requests; every delivered message is one top-level decode.

    Nested decodes (piggybacked requests) over the run at the parent: Lion
    1,000 (five replicas on the ``PREPARE``, the same five again on the
    ``COMMIT``), Dog 500, Peacock 500 (five on the ordering message).  Only
    Lion ships a payload twice on one connection, so only Lion's count moves:
    500 in every mode, beside 1,700 / 4,200 / 3,900 top-level decodes.
    """
    decoded = []
    wire_decode = aio.wire_decode
    monkeypatch.setattr(aio, "wire_decode", lambda frame: decoded.append(1) or wire_decode(frame))
    runtime = AioRuntime()
    _, client = _aio_oracle(runtime, mode, num_requests=100, window=8)
    met = runtime.run(
        kickoff=client.start, until=lambda: client.completed_count >= 100, timeout=30.0
    )
    assert met and client.timeouts == 0 and runtime.frames_rejected == 0
    assert len(decoded) - runtime.messages_delivered == 5 * 100


@pytest.mark.parametrize("mode", [Mode.LION, Mode.DOG, Mode.PEACOCK], ids=lambda mode: mode.name)
def test_a_fault_free_run_keeps_no_executed_frame_and_encodes_each_payload_once(
    monkeypatch, mode
):
    """Batched 4/0 (4 KB) requests over loopback TCP, two clients.

    An executed slot's payload and its inner requests hold no frame at any
    replica, and nothing is re-encoded: each request frame is built once
    (by its client) and each batch frame once (by the primary), though
    Lion's ``COMMIT`` is sent after its slot executed.  Without the release
    the primary keeps every request frame and every batch frame.
    """

    def recording(encoder, frames):
        def encode(*args):
            frames.append(encoder(*args))
            return frames[-1]

        return encode

    encoded = {"encode_request": [], "encode_batch": []}
    for name, frames in encoded.items():
        monkeypatch.setattr(primitives, name, recording(getattr(primitives, name), frames))
    monkeypatch.setattr(smr_client, "encode_request", primitives.encode_request)
    runtime = AioRuntime()
    settings = ShardSpec(
        mode=mode,
        crash_tolerance=1,
        byzantine_tolerance=1,
        request_timeout=AIO_REQUEST_TIMEOUT,
        batch_policy=BatchPolicy(max_batch=16, linger=0.002, pipeline_depth=2),
    )
    workload = Workload.build("4/0")
    keystore = new_keystore("retention", 0)
    group = wire_group(runtime, keystore, "seemore", settings, workload)
    pool = ClientPool(
        runtime, keystore, Placement(), [group.client_config(AIO_CLIENT_TIMEOUT)], workload
    )
    clients = pool.spawn(2, max_requests_each=60, window=8)
    met = runtime.run(
        kickoff=lambda: [client.start() for client in clients],
        until=lambda: all(client.completed_count >= 60 for client in clients),
        timeout=30.0,
    )
    assert met and runtime.frames_rejected == 0
    assert all(client.timeouts == 0 for client in clients)

    executed = [
        slot.request
        for replica in group.replicas.values()
        for slot in replica.slots.slots_above(0)
        if slot.executed
    ]
    assert len(executed) >= 6 * 8  # six replicas, several slots each
    assert any(isinstance(payload, Batch) for payload in executed)
    for payload in executed:
        assert payload.wire_length() > 4096  # kept, not rebuilt: the counts below
        for message in (payload, *requests_of(payload)):
            assert _WIRE_SLICE_ATTR not in message.__dict__

    request_frames, batch_frames = encoded["encode_request"], encoded["encode_batch"]
    assert len(request_frames) == len(set(request_frames)) == 2 * 60
    assert len(batch_frames) == len(set(batch_frames))
    committed = {digest_of(payload) for payload in executed if isinstance(payload, Batch)}
    assert {digest_bytes(frame) for frame in batch_frames} == committed
