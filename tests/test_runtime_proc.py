"""Supervisor behavior of the multiprocess runtime backend.

Conformance (proc commits exactly what the sim oracle commits) lives in
``test_runtime_conformance.py``; timer/CPU contracts in
``test_runtime_timers.py``.  Here the subject is the supervisor itself:
stats collection, worker-death detection, crash survival at f=1, and the
clean-shutdown guarantee (no orphaned process ever outlives a run).
"""

import logging
import os
import signal
import time

import pytest

from repro.cluster.builders import build_proc_seemore
from repro.core import Mode
from repro.runtime.conformance import run_leg


def _wait_for_progress(cluster, worker, minimum, timeout):
    """Poll the stats stream until ``worker``'s progress reaches ``minimum``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        cluster.poll()
        value = cluster.progress.get(worker)
        if isinstance(value, int) and value >= minimum:
            return value
        time.sleep(0.01)
    raise AssertionError(
        f"worker {worker!r} never reached progress {minimum} "
        f"(last seen: {cluster.progress.get(worker)!r})"
    )


def _assert_fully_reaped(cluster, result):
    """The clean-shutdown postcondition: every worker process is gone."""
    for name, process in cluster.processes.items():
        assert not process.is_alive(), f"worker {name!r} outlived shutdown"
        assert result.exitcodes[name] is not None


def test_proc_cluster_commits_and_streams_stats():
    cluster = build_proc_seemore(
        mode=Mode.LION, num_procs=2, num_requests=60, window=8,
        stats_interval=0.05,
    )
    result = cluster.run(timeout=60.0)
    assert result.met, (result.deaths, result.errors)
    assert result.deaths == []
    assert result.errors == []
    assert result.harvests["client"]["completed"] >= 60

    # Per-node stats arrive in the same fields the sim/aio backends fill.
    node_stats = result.node_stats()
    for replica_id in cluster.extras["config"].all_replicas:
        assert replica_id in node_stats
        assert node_stats[replica_id]["items_processed"] > 0
        assert node_stats[replica_id]["busy_time"] > 0.0
    assert result.messages_delivered() > 0
    assert result.bytes_delivered() > 0
    counts = result.message_type_counts()
    assert counts and all(count > 0 for count in counts.values())

    # Every worker exited voluntarily with a zero status.
    assert set(result.exitcodes.values()) == {0}
    _assert_fully_reaped(cluster, result)


def test_replica_worker_crash_is_reported_and_survivors_keep_committing(caplog):
    """Kill one replica process mid-run: f=1 must absorb it.

    In Lion mode agreement runs in the private cloud, so a worker hosting
    only public replicas is expendable; the supervisor must report the
    death (in ``deaths`` and in one WARNING), the client must still complete
    every request, and shutdown must reap everything within its hard grace
    deadline.
    """
    cluster = build_proc_seemore(
        mode=Mode.LION, num_procs=3, num_requests=100, window=8,
        stats_interval=0.05, seed=3,
    )
    public = set(cluster.extras["config"].public_replicas)
    victims = [
        name for name, ids in cluster.extras["replica_groups"].items()
        if set(ids) <= public
    ]
    assert victims, cluster.extras["replica_groups"]
    victim = victims[0]

    cluster.start()
    try:
        _wait_for_progress(cluster, "client", 40, timeout=30.0)
        cluster.kill_worker(victim)
        met = cluster.wait(timeout=60.0)
    finally:
        shutdown_started = time.monotonic()
        result = cluster.shutdown(grace=10.0)
    assert time.monotonic() - shutdown_started < 15.0
    assert met, (result.deaths, result.errors, cluster.progress)
    assert victim in result.deaths
    assert result.exitcodes[victim] == -signal.SIGKILL
    warnings = [
        record.getMessage() for record in caplog.records
        if record.name.startswith("repro") and record.levelno >= logging.WARNING
    ]
    assert warnings == [f"worker {victim!r} marked dead"]
    assert result.harvests["client"]["completed"] >= 100
    # The dead worker ships no harvest; every survivor does.
    assert victim not in result.harvests
    for name in cluster.extras["replica_groups"]:
        if name != victim:
            assert name in result.harvests
    _assert_fully_reaped(cluster, result)


def test_dead_predicate_worker_aborts_the_wait_instead_of_hanging():
    """Killing the worker the run waits on must fail fast, not time out."""
    cluster = build_proc_seemore(
        mode=Mode.LION, num_procs=2, num_requests=1_000_000, window=8,
        stats_interval=0.05,
    )
    cluster.start()
    try:
        _wait_for_progress(cluster, "client", 10, timeout=30.0)
        cluster.kill_worker("client")
        waited_from = time.monotonic()
        met = cluster.wait(timeout=60.0)
        waited = time.monotonic() - waited_from
    finally:
        result = cluster.shutdown(grace=10.0)
    assert met is False
    assert waited < 30.0, "wait() slept toward the timeout past a dead worker"
    assert "client" in result.deaths
    _assert_fully_reaped(cluster, result)


@pytest.mark.slow
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="core-scaling assertion needs >= 4 cores",
)
def test_four_proc_cluster_doubles_single_process_aio_throughput():
    """The acceptance bar: on >=4 cores, 4 replica processes sustain at
    least twice the single-loop aio backend's committed requests/s on the
    same batched Lion workload (400 requests, window 16, batches of 16)."""
    requests, window, max_batch = 400, 16, 16

    started = time.perf_counter()
    run_leg("aio", Mode.LION, requests, window, max_batch, seed=3, timeout=120.0)  # raises if short
    aio_rps = requests / (time.perf_counter() - started)

    cluster = build_proc_seemore(
        mode=Mode.LION,
        num_procs=4,
        num_requests=requests,
        window=window,
        max_batch=max_batch,
        seed=3,
    )
    result = cluster.run(timeout=180.0)
    assert result.met, (result.deaths, result.errors)
    proc_rps = result.harvests["client"]["completed"] / result.wall_seconds

    assert proc_rps >= 2.0 * aio_rps, (
        f"4-process proc backend managed {proc_rps:.1f} req/s vs "
        f"aio's {aio_rps:.1f} req/s (< 2x)"
    )
