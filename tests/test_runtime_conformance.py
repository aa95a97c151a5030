"""Fast-tier slice of the sim/aio/proc conformance oracle.

The full matrix (120 requests x 3 modes) runs in CI's dedicated
``runtime-conformance`` job via ``python -m repro.runtime.conformance``;
here each mode runs a reduced request count so the default test tier
still exercises real loopback TCP — both single-loop (aio) and
multiprocess (proc) — without dominating its wall time.
"""

import asyncio

import pytest

from repro.cluster.builders import wire_oracle
from repro.cluster.wiring import ShardSpec
from repro.core import Mode
from repro.runtime import conformance
from repro.runtime.aio import MAX_FRAME_BYTES, AioRuntime, encode_envelope
from repro.runtime.conformance import CLIENT_PREFIX, check_mode, run_leg
from repro.smr.messages import Request
from repro.smr.replica import ReplicaBase
from repro.smr.state_machine import Operation

REQUESTS = 40


@pytest.mark.parametrize("backend", ["aio", "proc"])
@pytest.mark.parametrize("mode", [Mode.LION, Mode.DOG, Mode.PEACOCK])
def test_sim_and_real_backends_commit_the_same_sequence(mode, backend):
    summary = check_mode(mode, num_requests=REQUESTS, window=8, max_batch=8,
                         timeout=30.0, backend=backend, num_procs=2)
    assert summary["common_prefix"] >= REQUESTS
    assert summary["sim_committed"] >= REQUESTS
    assert summary["real_committed"] >= REQUESTS


def test_dog_conforms_on_aio_at_f2():
    """c = m = 2: a larger cluster with larger quorums commits what the sim commits."""
    def replica_count(tolerance):
        settings = ShardSpec(
            mode=Mode.DOG, crash_tolerance=tolerance, byzantine_tolerance=tolerance
        )
        replicas, _ = wire_oracle(AioRuntime(), settings, 0, CLIENT_PREFIX)
        return len(replicas)

    assert replica_count(2) > replica_count(1)
    summary = check_mode(Mode.DOG, num_requests=REQUESTS, window=8, max_batch=8,
                         timeout=30.0, backend="aio", tolerance=2)
    assert summary["tolerance"] == 2
    assert summary["common_prefix"] >= REQUESTS
    assert summary["real_committed"] >= REQUESTS


def test_a_reply_entry_lost_on_the_wire_fails_the_oracle(monkeypatch):
    """A grouped reply that drops its tail is rescued by retransmission, and caught."""
    assert check_mode(Mode.LION, num_requests=REQUESTS, window=8, max_batch=8,
                      timeout=30.0)["client_retransmits"] == 0
    send_reply = ReplicaBase.send_reply

    def first_entry_only(self, client_id, timestamp, result, mode_id=0, more=()):
        send_reply(self, client_id, timestamp, result, mode_id)

    monkeypatch.setattr(ReplicaBase, "send_reply", first_entry_only)
    with pytest.raises(AssertionError, match=r"\[LION\] the sim client retransmitted"):
        check_mode(Mode.LION, num_requests=REQUESTS, window=8, max_batch=8, timeout=30.0)


def test_aio_loopback_smoke():
    """The asyncio backend alone: real sockets, real timers, clean exit."""
    trace = run_leg("aio", Mode.LION, num_requests=20, window=4, max_batch=4, timeout=20.0)
    assert trace.completed == 20
    assert len(trace.commit_trace) >= 20
    # Exactly-once over the flattened trace.
    assert len(set(trace.commit_trace)) == len(trace.commit_trace)
    # Every issued timestamp got a cached reply digest.
    assert set(trace.reply_digests) == set(range(1, 21))


def test_proc_loopback_smoke():
    """The multiprocess backend alone: worker processes, harvested traces."""
    trace = run_leg("proc", Mode.LION, num_requests=20, window=4, max_batch=4,
                    timeout=30.0, num_procs=2)
    assert trace.completed == 20
    assert len(trace.commit_trace) >= 20
    assert len(set(trace.commit_trace)) == len(trace.commit_trace)
    assert set(trace.reply_digests) == set(range(1, 21))


def test_aio_runtime_can_run_twice_in_one_process():
    """Server sockets and tasks from a finished run must not leak into or
    wedge a subsequent run (each ``run`` builds a fresh loop)."""
    first = run_leg("aio", Mode.LION, num_requests=10, window=4, max_batch=4, timeout=20.0)
    second = run_leg("aio", Mode.LION, num_requests=10, window=4, max_batch=4, timeout=20.0)
    assert first.completed == second.completed == 10
    assert first.commit_trace[:10] == second.commit_trace[:10]


def test_the_sim_and_proc_legs_hand_the_trace_the_same_harvests(monkeypatch):
    """One cluster on every backend: same workers, same replicas, same fields."""
    handed = {}
    trace = conformance._trace

    def recording(backend, mode, harvests, num_requests):
        handed[backend] = harvests
        return trace(backend, mode, harvests, num_requests)

    monkeypatch.setattr(conformance, "_trace", recording)
    for backend in ("sim", "proc"):
        run_leg(backend, Mode.DOG, num_requests=10, window=4, max_batch=4, timeout=30.0)

    def shape(harvests):
        return {
            name: {replica_id: sorted(data) for replica_id, data in harvest.items()}
            if name.startswith("replicas-") else sorted(harvest)
            for name, harvest in harvests.items()
        }

    assert sorted(handed["sim"]) == ["client", "replicas-0", "replicas-1"]
    assert shape(handed["sim"]) == shape(handed["proc"])


@pytest.mark.parametrize("backend", ["bogus", "sim"])
def test_an_unknown_backend_is_refused_before_anything_is_built(monkeypatch, backend):
    def unreachable(**kwargs):
        raise AssertionError("built a cluster for a backend that was refused")

    monkeypatch.setattr(conformance, "build_proc_seemore", unreachable)
    if backend == "bogus":
        with pytest.raises(ValueError, match="unknown backend 'bogus'"):
            run_leg(backend, Mode.LION, num_requests=1, window=1, max_batch=1)
    with pytest.raises(ValueError, match=f"unknown real backend '{backend}'"):
        check_mode(Mode.LION, num_requests=1, backend=backend)


class _Sink:
    """The least a registered node needs: an id and the two transport hooks."""

    node_id = "sink"

    def __init__(self):
        self.received = []

    def attach(self, transport):
        pass

    def deliver(self, src, message, size):
        self.received.append((src, message))


def _run_hostile_peer(frames):
    """Write raw length-prefixed ``frames`` at a live listener; report what happened."""
    runtime, sink, closed = AioRuntime(), _Sink(), []
    runtime.register(sink)

    async def peer():
        reader, writer = await asyncio.open_connection("127.0.0.1", runtime._ports["sink"])
        try:
            writer.write(b"\x04\x00evil" + b"".join(frames))
            await writer.drain()
            closed.append(await reader.read() == b"")  # returns once the listener hangs up
        finally:
            writer.close()

    runtime.run(
        kickoff=lambda: runtime._spawn(peer()),
        until=lambda: closed or len(sink.received) >= 2,
        timeout=10.0,
    )
    return runtime, sink, closed


def _framed(blob):
    return len(blob).to_bytes(4, "little") + blob


def test_aio_channel_survives_a_frame_that_does_not_decode():
    """One bad frame used to escape ``_serve`` and close the channel for good."""
    valid = encode_envelope(Request(Operation("noop"), timestamp=1, client_id="c"))
    garbage = b"\x02" + b"not a pickle, not anything"
    runtime, sink, closed = _run_hostile_peer(
        [_framed(valid), _framed(garbage), _framed(valid)]
    )
    assert not closed
    assert runtime.frames_rejected == 1
    assert runtime.messages_delivered == 2
    assert [src for src, _ in sink.received] == ["evil", "evil"]
    assert all(type(message) is Request for _, message in sink.received)


def test_aio_listener_hangs_up_on_an_oversized_length_prefix():
    valid = encode_envelope(Request(Operation("noop"), timestamp=1, client_id="c"))
    oversized = (MAX_FRAME_BYTES + 1).to_bytes(4, "little")
    runtime, sink, closed = _run_hostile_peer([_framed(valid), oversized, _framed(valid)])
    assert closed == [True]
    assert runtime.frames_rejected == 1
    assert runtime.messages_delivered == 1
