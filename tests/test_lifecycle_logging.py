"""The lifecycle log lines under ``repro``, one per event, and none without one.

A listener that hangs up, a dial that fails, a worker the supervisor marks
dead, a replica installing a view: each leaves exactly one line, at the level
its module promises, naming who it happened to.  A fault-free run leaves
nothing at all, so nothing is logged on a per-message path or for an orderly
shutdown.  The oversized-prefix hang-up, the SIGKILLed worker and the
``NullHandler`` guard are checked beside the code they exercise, in
``test_runtime_transport.py`` and ``test_runtime_proc.py``.
"""

import logging

import pytest

from repro.cluster import builder_for
from repro.core import Mode
from repro.runtime.aio import REDIAL_DELAY_S, REDIAL_MAX_DELAY_S, AioRuntime, encode_envelope
from repro.runtime.conformance import main as conformance_main, run_leg
from repro.runtime.proc import ProcCluster, ProcClusterError, WorkerSpec
from repro.scenarios import Crash, Scenario, ViewAdvanced, run_scenario
from test_runtime_connection import _ClosedPort, _commit, _request, _run_to_completion
from test_runtime_transport import HELLO, _accepted, _framed


def _lines(caplog, logger="repro"):
    """``(logger, level, message)`` of every record ``logger`` or a child emitted."""
    return [
        (record.name, record.levelname, record.getMessage())
        for record in caplog.records
        if record.name == logger or record.name.startswith(logger + ".")
    ]


# -- the listener: one WARNING per hang-up, naming the node, the sender and the reason ----


@pytest.mark.parametrize(
    "stream, sender, reason",
    [
        pytest.param(
            HELLO + _framed(encode_envelope(_commit(_request(1)), "evil", referenced=True)),
            "'evil'",
            "unresolved payload reference",
            id="unresolved-reference",
        ),
        pytest.param(
            b"\x02\x00\xff\xfe" + _framed(encode_envelope(_request(1))),
            "None",
            "undecodable hello",
            id="undecodable-hello",
        ),
    ],
)
def test_a_hang_up_logs_one_warning_with_its_reason(caplog, stream, sender, reason):
    runtime, sink, transport, inbound = _accepted()
    with caplog.at_level(logging.DEBUG, logger="repro"):
        inbound.data_received(stream)
    assert transport.closed and runtime.frames_rejected == 1
    assert _lines(caplog) == [
        ("repro.runtime.aio", "WARNING", f"sink: hung up on sender {sender}: {reason}")
    ]


# -- the dialler: one INFO per refused dial, with the wait it chose --------------------------


def test_each_refused_dial_logs_one_info_with_the_back_off_it_chose(caplog):
    runtime, loop = AioRuntime(), _ClosedPort()
    runtime._loop, runtime._spawn = loop, _run_to_completion
    runtime._install_endpoints({"sink": 1})
    with caplog.at_level(logging.DEBUG, logger="repro"):
        for n in range(9):
            loop.now += 2 * REDIAL_MAX_DELAY_S  # every send finds the wait over and dials
            runtime.transport.deliver("p0", "sink", _request(n), 0)
            loop.run()
    assert len(loop.dials) == 9
    delays = [min(REDIAL_DELAY_S * 2**n, REDIAL_MAX_DELAY_S) for n in range(9)]
    refused = ConnectionRefusedError("127.0.0.1", 1)
    assert _lines(caplog) == [
        ("repro.runtime.aio", "INFO", f"p0 -> sink: dial failed ({refused}); next dial in {d:.3f} s")
        for d in delays
    ]


# -- a fault-free run and its shutdown log nothing -------------------------------------------


@pytest.mark.parametrize("mode", [Mode.LION, Mode.DOG, Mode.PEACOCK], ids=lambda mode: mode.name)
def test_an_orderly_aio_run_and_its_shutdown_log_nothing(caplog, mode):
    with caplog.at_level(logging.DEBUG, logger="repro"):
        trace = run_leg("aio", mode, num_requests=30, window=4, max_batch=4, timeout=30.0)
    assert len(trace.commit_trace) >= 30
    assert _lines(caplog) == []


# -- the supervisor: the worker's error at ERROR, then its death at WARNING ------------------


def _build_fails(runtime):
    raise RuntimeError("no nodes to host")


def test_a_worker_that_fails_to_build_logs_its_error_then_its_death(caplog):
    cluster = ProcCluster(
        [WorkerSpec(name="broken", build=_build_fails)], start_method="fork", stats_interval=30.0
    )
    with caplog.at_level(logging.DEBUG, logger="repro"):
        with pytest.raises(ProcClusterError, match="'broken' died during startup"):
            cluster.start()
    (error, death) = _lines(caplog)
    assert error[:2] == ("repro.runtime.proc", "ERROR")
    assert error[2].startswith("worker 'broken' failed:\nTraceback")
    assert error[2].rstrip().endswith("RuntimeError: no nodes to host")
    assert death == ("repro.runtime.proc", "WARNING", "worker 'broken' marked dead")
    assert cluster.errors == [error[2]] and cluster.deaths == ["broken"]
    for process in cluster.processes.values():
        assert not process.is_alive()


# -- a replica: one INFO per installed view --------------------------------------------------


@pytest.mark.parametrize(
    "protocol, label",
    [
        ("seemore-lion", "LION"),
        ("cft", "PaxosReplica"),
        ("bft", "QuorumBFTReplica"),
        ("s-upright", "QuorumBFTReplica"),
    ],
)
def test_a_replica_logs_each_view_it_installs_and_its_protocol(caplog, protocol, label):
    scenario = Scenario(
        name="primary-crash",
        description="the primary crashes; the next view must serve",
        events=(Crash(at=0.1),),
        expectations=(ViewAdvanced(1),),
        duration=0.5,
    )
    deployment = builder_for(protocol)(num_clients=2, seed=7, client_timeout=0.1)
    with caplog.at_level(logging.INFO, logger="repro"):
        run_scenario(scenario, deployment=deployment).assert_ok()
    lines = _lines(caplog)
    assert {(logger, level) for logger, level, _ in lines} == {("repro.smr.view_change", "INFO")}
    installed = [replica for replica in deployment.correct_replicas() if replica.view >= 1]
    assert installed
    for replica in installed:
        own = [message for _, _, message in lines if message.startswith(f"{replica.node_id} ")]
        assert len(own) == replica.view_changes.view_changes_completed
        assert own[-1] == f"{replica.node_id} installed view {replica.view} ({label})"


# -- the conformance CLI: --tolerance reaches the printed summary ----------------------------


def test_the_conformance_cli_checks_c_equals_m_equals_two(capsys):
    assert conformance_main(["--mode", "lion", "--tolerance", "2", "--requests", "40"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("conformance OK: mode=LION backend=aio tolerance=2 requests=40 ")
