"""The aio data path, seam by seam: inbound parser, outbound channel, CPU slice.

Socket-free where the seam allows it.  The inbound and outbound Protocol
objects are driven by hand with a recording transport, and a ``_Ticker``
stands in for the event loop where a test needs to count ticks: callbacks
scheduled during one tick run in the next, exactly the rule
``loop.call_soon`` follows.  Three tests need what only a real loop gives
(timers against a busy CPU, coalescing under a real closed-loop run, a
connection cut under an established channel) and run over loopback TCP.
"""

import logging
import math
import os
import pathlib
import subprocess
import sys
import time
from collections import deque

import pytest

from repro.cluster.builders import PROC_PIPELINE_DEPTH, wire_oracle
from repro.cluster.wiring import ShardSpec
from repro.core import BatchPolicy, Mode
from repro.core import messages as core
from repro.crypto.digest import digest_of
from repro.crypto.keys import KeyStore
from repro.net.node import Node
from repro.runtime import aio
from repro.runtime.aio import (
    CPU_SLICE_S,
    MAX_FRAME_BYTES,
    AioRuntime,
    decode_envelope,
    encode_envelope,
)
from repro.runtime.conformance import AIO_CLIENT_TIMEOUT, AIO_REQUEST_TIMEOUT, CLIENT_PREFIX
from repro.smr.messages import Batch, Reply, Request
from repro.smr.state_machine import Operation


class _Sink:
    """The least a registered node needs: an id and the two transport hooks."""

    def __init__(self, node_id="sink"):
        self.node_id = node_id
        self.received = []

    def attach(self, transport):
        pass

    def deliver(self, src, message, size):
        self.received.append((src, message))

    @property
    def timestamps(self):
        return [message.timestamp for _, message in self.received]


class _RecordingTransport:
    """What a Protocol sees of a connection: writes, and whether it was closed."""

    def __init__(self):
        self.writes = []
        self.closed = False

    def write(self, data):
        self.writes.append(data)

    def close(self):
        self.closed = True

    abort = close


class _Ticker:
    """An event loop reduced to ``call_soon`` and an explicit ``tick``."""

    def __init__(self):
        self.ready = deque()

    def call_soon(self, callback, *args):
        self.ready.append((callback, args))

    def time(self):
        return time.monotonic()

    def tick(self):
        for _ in range(len(self.ready)):
            callback, args = self.ready.popleft()
            callback(*args)

    def run(self):
        while self.ready:
            self.tick()


def _request(timestamp):
    return Request(Operation("noop"), timestamp=timestamp, client_id="c")


def _timestamp(message):
    return getattr(message, "request", message).timestamp


def _framed(blob):
    return len(blob).to_bytes(4, "little") + blob


HELLO = b"\x04\x00evil"


def _accepted(runtime=None):
    """A sink behind an accepted connection, no socket involved."""
    runtime = runtime or AioRuntime()
    sink, transport = _Sink(), _RecordingTransport()
    inbound = aio._Inbound(runtime, sink)
    inbound.connection_made(transport)
    return runtime, sink, transport, inbound


# -- (a) inbound: data_received ---------------------------------------------------


class TestInboundParser:
    def test_an_envelope_split_byte_by_byte_is_delivered_once(self):
        runtime, sink, transport, inbound = _accepted()
        stream = HELLO + _framed(encode_envelope(_request(7)))
        for index in range(len(stream) - 1):
            inbound.data_received(stream[index : index + 1])
            assert sink.received == []
        inbound.data_received(stream[-1:])
        assert [(src, message.timestamp) for src, message in sink.received] == [("evil", 7)]
        assert runtime.messages_delivered == 1
        assert runtime.bytes_delivered == len(stream) - len(HELLO) - 4
        assert runtime.frames_rejected == 0 and not transport.closed

    def test_every_complete_frame_in_one_buffer_is_delivered_in_order(self):
        runtime, sink, transport, inbound = _accepted()
        frames = [_framed(encode_envelope(_request(n))) for n in range(1, 41)]
        tail = _framed(encode_envelope(_request(41)))
        inbound.data_received(HELLO + b"".join(frames) + tail[:9])
        assert sink.timestamps == list(range(1, 41))
        inbound.data_received(tail[9:])
        assert sink.timestamps == list(range(1, 42))
        assert runtime.messages_delivered == 41

    def test_garbage_between_valid_frames_is_dropped_and_counted(self):
        runtime, sink, transport, inbound = _accepted()
        valid = _framed(encode_envelope(_request(1)))
        garbage = _framed(b"\x02" + b"not a pickle, not anything")
        inbound.data_received(HELLO + valid + garbage + valid)
        assert runtime.frames_rejected == 1
        assert runtime.messages_delivered == 2
        assert [src for src, _ in sink.received] == ["evil", "evil"]
        assert not transport.closed

    def test_an_envelope_with_a_reply_in_its_payload_slot_is_dropped_and_counted(self):
        """One such envelope from Peacock's untrusted primary used to leave a
        sequence number no correct replica could commit past."""
        runtime, sink, transport, inbound = _accepted()
        reply = Reply(Mode.PEACOCK.value, 0, 7, "c", "p0", {"ok": True}).sign(KEYS.signer_for("p0"))
        forged = core.PrePrepare(0, 1, digest_of(reply), reply, Mode.PEACOCK.value)
        forged.sign(KEYS.signer_for("p0"))
        valid = _framed(encode_envelope(_request(1)))
        inbound.data_received(HELLO + valid + _framed(encode_envelope(forged)) + valid)
        assert runtime.frames_rejected == 1
        assert sink.timestamps == [1, 1]
        assert not transport.closed

    def test_an_oversized_length_prefix_hangs_up(self, caplog):
        runtime, sink, transport, inbound = _accepted()
        valid = _framed(encode_envelope(_request(1)))
        oversized = (MAX_FRAME_BYTES + 1).to_bytes(4, "little")
        with caplog.at_level(logging.INFO, logger="repro"):
            inbound.data_received(HELLO + valid + oversized + valid)
        assert transport.closed
        assert runtime.frames_rejected == 1
        assert runtime.messages_delivered == 1
        (record,) = caplog.records
        assert (record.name, record.levelname) == ("repro.runtime.aio", "WARNING")
        assert record.getMessage() == "sink: hung up on sender 'evil': oversized length prefix"

    def test_a_hello_that_is_not_utf8_hangs_up(self):
        runtime, sink, transport, inbound = _accepted()
        inbound.data_received(b"\x02\x00\xff\xfe" + _framed(encode_envelope(_request(1))))
        assert transport.closed and sink.received == []
        assert runtime.frames_rejected == 1

    def test_a_hang_up_stays_off_stderr_unless_logging_is_configured(self):
        """``repro`` carries a ``NullHandler``: without it Python's last-resort
        handler prints the hang-up's WARNING to stderr, and ``benchmarks/e2e``
        counts any stderr output as a failed run.  The second run removes it and sees the line."""
        oversized = HELLO + (MAX_FRAME_BYTES + 1).to_bytes(4, "little")
        script = (
            "import logging, sys\n"
            "from repro.runtime import aio\n"
            "if sys.argv[1] == 'unguarded':\n"
            "    logging.getLogger('repro').handlers.clear()\n"
            "class Sink:\n"
            "    node_id = 'sink'\n"
            "    def deliver(self, src, message, size): pass\n"
            "class Transport:\n"
            "    def close(self): pass\n"
            "inbound = aio._Inbound(aio.AioRuntime(), Sink())\n"
            "inbound.connection_made(Transport())\n"
            f"inbound.data_received({oversized!r})\n"
            "assert inbound._runtime.frames_rejected == 1\n"
        )
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(aio.__file__).parents[2]))
        runs = {
            guard: subprocess.run(
                [sys.executable, "-c", script, guard],
                capture_output=True, text=True, env=env, timeout=60,
            )
            for guard in ("guarded", "unguarded")
        }
        assert [run.returncode for run in runs.values()] == [0, 0]
        assert runs["guarded"].stderr == ""
        assert "hung up on sender 'evil': oversized length prefix" in runs["unguarded"].stderr


# -- (b) outbound: FIFO across connect-time buffering and coalesced writes ---------


def _ticking_runtime():
    """A runtime whose loop is a ``_Ticker``; nothing dials (no endpoint table yet)."""
    runtime, ticker = AioRuntime(), _Ticker()
    runtime._loop = ticker
    return runtime, ticker


def _replay(writes):
    """Feed what a channel wrote to a fresh listener; the sink it delivered to."""
    _, sink, _, inbound = _accepted()
    for data in writes:
        inbound.data_received(data)
    return sink


class TestOutboundChannel:
    def test_frames_sent_before_the_connection_is_up_leave_first_and_in_order(self):
        runtime, ticker = _ticking_runtime()
        send = runtime.transport.deliver
        for n in (1, 2, 3):
            send("evil", "sink", _request(n), 0)
        ticker.tick()  # flush: no connection, nothing may dial yet, so it buffers
        send("evil", "sink", _request(4), 0)
        ticker.tick()
        channel, transport = runtime._channels["evil", "sink"], _RecordingTransport()
        assert runtime.writes_issued == 0

        channel.connection_made(transport)
        assert len(transport.writes) == 1  # hello and four frames, joined
        assert transport.writes[0].startswith(HELLO)

        for tick_messages in ((5, 6), (7,), (8, 9, 10)):
            for n in tick_messages:
                send("evil", "sink", _request(n), 0)
            ticker.tick()
        assert len(transport.writes) == 4  # one write per tick that sent something
        assert runtime.writes_issued == 4 and runtime.frames_sent == 10
        sink = _replay(transport.writes)
        assert sink.timestamps == list(range(1, 11))
        assert {src for src, _ in sink.received} == {"evil"}

    def test_a_lost_connection_makes_the_next_flush_start_over_with_a_hello(self):
        runtime, ticker = _ticking_runtime()
        send = runtime.transport.deliver
        send("evil", "sink", _request(1), 0)
        ticker.tick()
        channel, first = runtime._channels["evil", "sink"], _RecordingTransport()
        channel.connection_made(first)
        channel.connection_lost(ConnectionResetError())
        send("evil", "sink", _request(2), 0)
        send("evil", "sink", _request(3), 0)
        ticker.tick()
        assert len(first.writes) == 1  # nothing is written to the dead transport
        second = _RecordingTransport()
        channel.connection_made(second)
        assert _replay(second.writes).timestamps == [2, 3]

    def test_a_multicast_is_encoded_once_and_written_once_per_peer(self, monkeypatch):
        """At most one encode per variant (payloads in full / referenced) per tick."""
        runtime, ticker = _ticking_runtime()
        encoded = []
        encode = aio.encode_envelope

        def counting(message, sender=None, referenced=False):
            encoded.append((type(message).__name__, _timestamp(message), referenced))
            return encode(message, sender, referenced)

        monkeypatch.setattr(aio, "encode_envelope", counting)

        class Speaker(Node):
            def handle_message(self, src, payload):
                raise AssertionError("nothing is delivered here")

        speaker = Speaker("evil", runtime)
        speaker.attach(runtime.transport)
        peers = ["p1", "p2", "p3", "p4", "p5"]
        speaker.multicast(peers, _request(1))
        ticker.tick()  # the CPU slice transmits to every peer
        transports = {}
        for peer in peers:
            transports[peer] = _RecordingTransport()
            runtime._channels["evil", peer].connection_made(transports[peer])
        speaker.multicast(peers + ["evil"], _request(2))
        speaker.send("p1", _request(3))
        ticker.run()
        assert encoded == [("Request", 1, False), ("Request", 2, False), ("Request", 3, False)]
        assert runtime.frames_sent == 11
        assert runtime.writes_issued == 10  # 5 on connect, then one per peer

        # Two peers have had the payload, three have not: one tick, two variants.
        del encoded[:]
        carried = _request(4)
        prepare = core.Prepare(0, 1, digest_of(carried), carried, Mode.LION.value)
        speaker.multicast(["p1", "p2"], prepare)
        ticker.run()
        commit = core.Commit(0, 1, digest_of(carried), "evil", Mode.LION.value, request=carried)
        speaker.multicast(peers, commit)
        ticker.run()
        assert encoded == [("Prepare", 4, False), ("Commit", 4, True), ("Commit", 4, False)]
        assert runtime.frames_sent == 18 and runtime.writes_issued == 17
        for peer in peers:
            received = [message for _, message in _replay(transports[peer].writes).received]
            expected = [1, 2, 3] if peer == "p1" else [1, 2]
            expected += [4, 4] if peer in ("p1", "p2") else [4]
            assert [_timestamp(message) for message in received] == expected
            if peer in ("p1", "p2"):  # the reference resolves to what the prepare brought
                assert received[-1].request is received[-2].request


# -- (c) the CPU slice ----------------------------------------------------------------


def _spin(counter):
    counter[0] += sum(range(40))


def _items_lasting(seconds, work, args):
    """How many ``work(*args)`` items are at least ten times ``seconds`` of work here.

    Probed on this host, not assumed: a count that is 50 ms of work on one
    machine is under 5 ms on another.  The CPU's own per-item cost comes on
    top, so the backlog only gets longer than the probe says.
    """
    started = time.perf_counter()
    for _ in range(1000):
        work(*args)
    per_item = (time.perf_counter() - started) / 1000
    return max(1000, math.ceil(10 * seconds / per_item))


class TestCpuSlice:
    def test_a_slice_is_bounded_and_keeps_fifo_order(self):
        runtime, ticker = _ticking_runtime()
        cpu = runtime.create_cpu("n0")
        ran = []
        count = _items_lasting(CPU_SLICE_S, [].append, (0,))
        for index in range(count):
            cpu.submit(0.0, ran.append, (index,))
        ticker.tick()
        first = len(ran)
        assert 0 < first < count, "one slice ran the whole backlog"
        assert cpu.queue_depth == count - first and len(ticker.ready) == 1
        ticker.run()
        assert ran == list(range(count))
        assert cpu.items_processed == count and cpu.busy_time > 0.0

    def test_a_crash_from_inside_a_handler_stops_the_slice(self):
        runtime, ticker = _ticking_runtime()
        cpu = runtime.create_cpu("n0")
        ran = []
        cpu.submit(0.0, ran.append, ("before",))
        cpu.submit(0.0, cpu.crash)
        cpu.submit(0.0, ran.append, ("after",))
        ticker.run()
        assert ran == ["before"]
        assert cpu.items_processed == 2 and cpu.queue_depth == 0
        cpu.recover()
        cpu.submit(0.0, ran.append, ("recovered",))
        ticker.run()
        assert ran == ["before", "recovered"]

    def test_a_failing_handler_does_not_strand_the_queue(self):
        runtime, ticker = _ticking_runtime()
        cpu = runtime.create_cpu("n0")
        ran = []
        cpu.submit(0.0, ran.append)  # TypeError: append() takes exactly one argument
        cpu.submit(0.0, ran.append, ("next",))
        with pytest.raises(TypeError):
            ticker.tick()
        ticker.run()
        assert ran == ["next"] and cpu.items_processed == 2

    def test_a_backlog_on_one_node_does_not_hold_up_another_nodes_timer(self):
        """The queued items are at least 50 ms of work; the 5 ms timer must not wait for them."""
        runtime = AioRuntime()
        busy = runtime.create_cpu("busy")
        counter, fired = [0], []
        count = _items_lasting(0.005, _spin, ([0],))

        def kickoff():
            for _ in range(count):
                busy.submit(0.0, _spin, (counter,))
            armed_at = runtime.now
            runtime.call_later(
                0.005, lambda: fired.append((runtime.now - armed_at, busy.queue_depth))
            )

        runtime.run(kickoff=kickoff, until=lambda: fired and not busy.queue_depth, timeout=20.0)
        assert busy.items_processed == count
        ((elapsed, backlog_then),) = fired
        assert backlog_then > 0, "the backlog drained before the timer: the test shows nothing"
        # Due at 5 ms; one slice may be running when it falls due.  The bound
        # leaves room for a loaded CI host and is still a fifth of the backlog.
        assert elapsed < 0.005 + 20 * CPU_SLICE_S


# -- timers: a deadline that moves, at most one wake-up on the loop's heap ----------------


def _run_timer(scenario, until=None, timeout=1.0):
    """Run ``scenario(runtime, timer, fired)`` from kickoff on a real loop, no sockets.

    Returns the loop times at which the timer fired and the ``call_at`` /
    ``call_later`` calls the timer made on the loop.
    """
    runtime = AioRuntime()
    fired, scheduled = [], []

    def on_fire():
        assert not timer.active  # disarmed before the callback
        fired.append(runtime._running_loop().time())

    timer = runtime.timer(on_fire, label="t")

    def kickoff():
        loop = runtime._running_loop()
        for name in ("call_at", "call_later"):
            def counting(when, callback, *args, _schedule=getattr(loop, name), _name=name, **kw):
                if getattr(callback, "__self__", None) is timer:
                    scheduled.append(_name)
                return _schedule(when, callback, *args, **kw)

            setattr(loop, name, counting)
        scenario(runtime, timer, fired)

    runtime.run(kickoff=kickoff, until=until and (lambda: until(fired)), timeout=timeout)
    return fired, scheduled


class TestTimerDeadline:
    def test_ten_thousand_restarts_schedule_at_most_two_wakeups(self):
        last_deadline = []

        def scenario(runtime, timer, fired):
            loop = runtime._running_loop()
            for _ in range(10_000):
                last_deadline[:] = [loop.time() + 0.05]
                timer.restart(0.05)

        fired, scheduled = _run_timer(scenario, until=len, timeout=5.0)
        assert len(fired) == 1 and fired[0] >= last_deadline[0]
        assert len(scheduled) <= 2, f"{len(scheduled)} loop-timer calls for one pushed-back timer"

    def test_a_shorter_start_supersedes_a_pending_later_wakeup(self):
        started = []

        def scenario(runtime, timer, fired):
            started.append(runtime._running_loop().time())
            timer.start(0.2)
            timer.start(0.01)

        fired, _ = _run_timer(scenario, until=len)
        assert len(fired) == 1 and 0.01 <= fired[0] - started[0] < 0.15

    def test_stop_then_start_reuses_the_pending_wakeup(self):
        # The pending wake-up is due well before the new deadline, so a loop
        # held up by a busy host still wakes early and re-arms for the remainder.
        # The run lasts well past the deadline, so one fire means exactly one.
        started = []

        def scenario(runtime, timer, fired):
            timer.start(0.01)
            timer.stop()
            assert not timer.active
            started.append(runtime._running_loop().time())
            timer.start(0.3)
            assert timer.active

        fired, scheduled = _run_timer(scenario, timeout=0.6)
        assert len(fired) == 1 and fired[0] >= started[0] + 0.3
        assert scheduled == ["call_at", "call_at"]  # armed once, re-armed once for the remainder

    def test_stop_between_the_deadline_and_the_wakeup_does_not_fire(self):
        def scenario(runtime, timer, fired):
            timer.start(0.005)
            time.sleep(0.02)  # the loop is held: the deadline passes, the wake-up cannot run
            timer.stop()
            assert not timer.active

        fired, scheduled = _run_timer(scenario, timeout=0.1)
        assert fired == [] and len(scheduled) == 1


# -- (d) coalescing on a real run, (bugfix) reconnect -----------------------------------


def _aio_oracle(runtime, mode, num_requests, window):
    """The conformance oracle's cluster, unbatched, and its client on ``runtime``."""
    settings = ShardSpec(
        mode=mode,
        request_timeout=AIO_REQUEST_TIMEOUT,
        batch_policy=BatchPolicy(max_batch=1, pipeline_depth=PROC_PIPELINE_DEPTH),
    )
    return wire_oracle(
        runtime, settings, 0, CLIENT_PREFIX,
        client_timeout=AIO_CLIENT_TIMEOUT, num_requests=num_requests, window=window,
    )


def test_a_window_16_closed_loop_run_coalesces_writes():
    runtime = AioRuntime()
    _, client = _aio_oracle(runtime, Mode.LION, num_requests=200, window=16)
    met = runtime.run(
        kickoff=client.start, until=lambda: client.completed_count >= 200, timeout=30.0
    )
    assert met and client.timeouts == 0
    assert runtime.frames_rejected == 0
    assert runtime.messages_delivered <= runtime.frames_sent
    assert runtime.frames_sent >= 200 * 15
    assert runtime.writes_issued < runtime.frames_sent


def test_messages_sent_after_a_connection_was_lost_still_arrive():
    """The parent's pump exited on the first error and the channel ate every later message."""
    runtime, sink = AioRuntime(), _Sink()
    runtime.register(sink)
    sent, cut_at = [], []

    def send_next():
        sent.append(len(sent) + 1)
        runtime.transport.deliver("evil", "sink", _request(sent[-1]), 0)

    def until():
        if not cut_at and sink.received:
            for inbound in list(runtime._inbound):
                inbound.transport.abort()  # the accepted socket goes away under the channel
            cut_at.append(sent[-1])
        elif cut_at and len(sent) < 200:
            send_next()  # one per poll: some are lost with the connection, the rest must arrive
        return bool(cut_at) and sink.timestamps[-1] > cut_at[0] + 5

    met = runtime.run(kickoff=send_next, until=until, timeout=10.0)
    assert met, f"nothing arrived after the cut at {cut_at}: {sink.timestamps}"
    assert sink.timestamps == sorted(set(sink.timestamps))  # in order, none twice
    assert {src for src, _ in sink.received} == {"evil"}


# -- (e) a batch-bearing message across the envelope ---------------------------------------


KEYS = KeyStore()
for _node in ("client-0", "client-1", "p0"):
    KEYS.register(_node)


def _signed_batch(payload="x" * 4096):
    requests = [
        Request(Operation("put", (f"k{n}", n), payload), timestamp=n, client_id=client).sign(
            KEYS.signer_for(client)
        )
        for n, client in ((1, "client-0"), (2, "client-1"), (3, "client-0"))
    ]
    return Batch(requests=requests)


class TestBatchBearingMessage:
    def received(self):
        batch = _signed_batch()
        sent = core.PrePrepare(0, 9, digest_of(batch), batch, Mode.PEACOCK.value)
        sent.sign(KEYS.signer_for("p0"))
        blob = encode_envelope(sent)
        return sent, blob, decode_envelope(blob)

    def test_it_verifies_and_its_digest_covers_the_bytes_the_sender_signed(self):
        sent, _, twin = self.received()
        verifier = KEYS.verifier()
        assert twin.verify(verifier, expected_signer="p0")
        assert digest_of(twin.request) == digest_of(sent.request) == twin.digest
        for request, original in zip(twin.request.requests, sent.request.requests):
            assert request.verify(verifier, expected_signer=original.client_id)
            assert request.operation == original.operation

    def test_the_piggybacked_frame_is_not_retained_but_relays_byte_identically(self):
        sent, blob, twin = self.received()
        frame = sent.request.wire_slice()
        assert len(frame) > 3 * 4096
        retained = [value for value in twin.request.__dict__.values() if type(value) is bytes]
        assert retained == [], "a replica would log this frame beside the decoded requests"
        assert twin.wire_slice() == sent.wire_slice()  # the top-level frame is kept
        assert twin.request.wire_slice() == frame
        assert encode_envelope(twin) == blob

    def test_a_tampered_nested_payload_is_rejected(self):
        sent, blob, _ = self.received()
        position = blob.index(b"x" * 4096) + 100
        tampered = decode_envelope(blob[:position] + b"y" + blob[position + 1 :])
        # What every ordering handler checks before it looks at the payload.
        assert digest_of(tampered.request) != tampered.digest
        verifier = KEYS.verifier()
        verdicts = [request.verify(verifier) for request in tampered.request.requests]
        assert verdicts == [False, True, True]
