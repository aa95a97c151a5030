"""The benchmark's only contact with ``repro``: build a cluster, run one repeat.

No other file of the benchmark imports from ``repro``, so this module is the
complete list of names a refactor of ``src/`` has to keep (or change here).
Clusters are hand-wired through public constructors on the TCP backends and
through the public scenario / sharded runners on the simulator.

:func:`run_once` returns one *observation*: plain numbers, lists and strings
describing a single repeat, which ``run.py`` aggregates without knowing what
a replica is.
"""

from __future__ import annotations

import asyncio
import os
import resource
import time
from array import array
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster import build_sharded_seemore, run_sharded_deployment
from repro.core import (
    BatchPolicy,
    Batcher,
    Mode,
    SeeMoReConfig,
    SeeMoReReplica,
    client_config_for_mode,
)
from repro.crypto.digest import digest, digest_bytes, digest_of
from repro.crypto.keys import KeyStore
from repro.crypto.signatures import Signer, Verifier, WindowVerifier
from repro.net.node import Node
from repro.runtime import aio as aio_module
from repro.runtime.aio import AioRuntime
from repro.runtime.proc import ProcCluster, WorkerPlan, WorkerSpec
from repro.scenarios import (
    Crash,
    InvariantChecker,
    Scenario,
    ViewAdvanced,
    default_checkers,
    run_scenario,
)
from repro.shard.client import ShardedClient
from repro.shard.coordinator import CrossShardCoordinator
from repro.shard.router import ShardRouter
from repro.sim.simulator import Simulator
from repro.smr.client import Client
from repro.smr.executor import OrderedExecutor
from repro.smr.ledger import find_safety_violations
from repro.smr.replica import ReplicaBase
from repro.wire import codec as codec_module
from repro.wire import primitives as primitives_module
from repro.workload import (
    ClientPopulation,
    OpenLoopConnection,
    OpenLoopDriver,
    PoissonArrivals,
    Workload,
    WorkloadSpec,
)

from .trace import Tracer
from .workloads import WARMUP_FRACTION, WorkloadDef
from .yardstick import TICK_INTERVAL_S, Yardstick, chunk, speed_now, speed_over

CLIENT_ID = "e2e-client"

#: Real-clock timers far above anything a stalled host does to a loopback
#: cluster (a shared sandbox was seen to hold requests for 3.7 s), so a timer
#: that fires on a fault-free workload means a message was lost, not delayed.
REPLICA_REQUEST_TIMEOUT = 20.0
CLIENT_REQUEST_TIMEOUT = 10.0
#: A repeat that has not finished by then is reported as failed, not waited for.
RUN_TIMEOUT = 60.0
#: Open loop: how long queued and in-flight requests may take to drain after
#: the last arrival; what is left then has failed.
DRAIN_GRACE = 5.0
SIM_SETTLE = 0.1
#: Yardstick ticks of one simulator repeat, evenly spaced in simulated time
#: (10-30 ms of wall clock apart); a fixed number, so ``sim.events`` stays exact.
SIM_TICKS = 100

Observation = Dict[str, Any]


def cpu_seconds() -> float:
    """User+sys CPU of this process and of every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- tracing ---------------------------------------------------------------------


def _req_of_payload(args: tuple) -> Optional[Tuple[str, int]]:
    """``(client_id, timestamp)`` of a ``(self, src, payload)`` call, if carried."""
    payload = args[2]
    client_id = getattr(payload, "client_id", None)
    timestamp = getattr(payload, "timestamp", None)
    if isinstance(client_id, str) and isinstance(timestamp, int):
        return client_id, timestamp
    return None


#: (class, method, span name, layer, request-id extractor) — the calls into
#: each layer that the traced run brackets.
_TRACED_METHODS = (
    (Simulator, "run", "sim.run", "sim", None),
    (Node, "_transmit", "net.transmit", "net", None),
    (Node, "deliver", "net.deliver", "net", None),
    (Node, "_handle", "net.handle", "net", _req_of_payload),
    (ReplicaBase, "handle_message", "core.handle", "core", _req_of_payload),
    (Batcher, "_on_linger", "core.linger", "core", None),
    (Client, "handle_message", "smr.client.handle", "smr", _req_of_payload),
    (Client, "_issue_next", "smr.client.issue", "smr", None),
    (Client, "_on_timeout", "smr.client.timeout", "smr", None),
    (ShardedClient, "_issue_next", "smr.client.issue", "smr", None),
    (ShardedClient, "_on_timeout", "smr.client.timeout", "smr", None),
    (OrderedExecutor, "commit", "smr.execute", "smr", None),
    (OrderedExecutor, "commit_batch", "smr.execute", "smr", None),
    (Signer, "sign_digest", "crypto.sign", "crypto", None),
    (Verifier, "verify_digest", "crypto.verify", "crypto", None),
    (WindowVerifier, "verify", "crypto.verify", "crypto", None),
    (WindowVerifier, "verify_batch", "crypto.verify", "crypto", None),
    (ShardRouter, "shards_of_operation", "shard.router", "shard", None),
    (ShardRouter, "split_writes", "shard.router", "shard", None),
    (CrossShardCoordinator, "begin", "shard.coordinator", "shard", None),
    (CrossShardCoordinator, "_on_vote", "shard.coordinator", "shard", None),
    (CrossShardCoordinator, "_on_decided", "shard.coordinator", "shard", None),
    (CrossShardCoordinator, "_deadline", "shard.coordinator", "shard", None),
    (OpenLoopDriver, "_on_arrival", "workload.arrival", "workload", None),
)

#: Module-level functions, patched under every name they were imported as.
_TRACED_FUNCTIONS = (
    (aio_module.encode_envelope, "aio.envelope_encode", "runtime.aio"),
    (aio_module.decode_envelope, "aio.envelope_decode", "runtime.aio"),
    (codec_module.encode, "wire.encode", "wire"),
    (codec_module.decode, "wire.decode", "wire"),
    (primitives_module.encode_request, "wire.encode", "wire"),
    (primitives_module.encode_batch, "wire.encode", "wire"),
    (primitives_module.encode_reply, "wire.encode", "wire"),
    (primitives_module.encode_vote, "wire.encode", "wire"),
    (primitives_module.encode_attributed_vote, "wire.encode", "wire"),
    (primitives_module.encode_checkpoint, "wire.encode", "wire"),
    (digest_bytes, "crypto.digest", "crypto"),
    (digest, "crypto.digest", "crypto"),
    (digest_of, "crypto.digest", "crypto"),
)


class Instrumentation:
    """One process's tracer plus the two waiting-time samples spans cannot give."""

    def __init__(self, process: str, wall_clock: bool) -> None:
        self.tracer = Tracer(process)
        self.wall_clock = wall_clock
        self.cpu_waits_ms = array("d")  # Node.deliver -> Node._handle, wall-clock backends
        self.gen_late_ms = array("d")  # open-loop arrival fired - arrival due
        self._delivered_at: Dict[int, deque] = {}

    def install(self) -> "Instrumentation":
        tracer = self.tracer
        if self.wall_clock:
            # Each AioCpu queue is FIFO and nothing crashes on the TCP
            # workloads, so the n-th delivery is the n-th handled message.
            tracer.hook_method(Node, "deliver", self._on_deliver)
            tracer.hook_method(Node, "_handle", self._on_handle)
        tracer.hook_method(OpenLoopDriver, "_on_arrival", self._on_arrival)
        for owner, attr, name, layer, req_of in _TRACED_METHODS:
            tracer.wrap_method(owner, attr, name, layer, req_of)
        for function, name, layer in _TRACED_FUNCTIONS:
            tracer.wrap_function(function, name, layer, package="repro")
        return self

    def uninstall(self) -> None:
        self.tracer.uninstall()

    def _on_deliver(self, node, src, payload, size) -> None:
        if not node.process.crashed:
            self._delivered_at.setdefault(id(node), deque()).append(time.perf_counter())

    def _on_handle(self, node, src, payload) -> None:
        self.cpu_waits_ms.append(
            (time.perf_counter() - self._delivered_at[id(node)].popleft()) * 1e3
        )

    def _on_arrival(self, driver) -> None:
        event = driver._pending_event
        if event is not None:
            self.gen_late_ms.append((driver.runtime.now - event[0]) * 1e3)

    def export(self, wall_s: float) -> Dict[str, Any]:
        """Picklable trace of one process; ``wall_s`` is its measured window."""
        return {
            "spans": self.tracer.spans,
            "wall_s": wall_s,
            "cpu_waits_ms": self.cpu_waits_ms,
            "gen_late_ms": self.gen_late_ms,
        }


# -- hand-wired clusters (TCP backends) -------------------------------------------


def _batch_policy(workload: WorkloadDef) -> BatchPolicy:
    if workload.batch is None:
        return BatchPolicy()
    max_batch, linger = workload.batch
    return BatchPolicy(max_batch=max_batch, linger=linger)


def _shared_material(workload: WorkloadDef, seed: int):
    """Config, keys and payload recipe; every process derives the same ones."""
    config = SeeMoReConfig.build(
        1, 1, request_timeout=REPLICA_REQUEST_TIMEOUT, batch_policy=_batch_policy(workload)
    )
    keystore = KeyStore(seed=f"e2e-{seed}")
    for replica_id in config.all_replicas:
        keystore.register(replica_id)
    keystore.register(CLIENT_ID)
    return config, keystore, Workload.build(workload.payload)


def _wire_replicas(
    runtime, workload: WorkloadDef, seed: int, replica_ids: Optional[Sequence[str]] = None
) -> Dict[str, SeeMoReReplica]:
    config, keystore, payload = _shared_material(workload, seed)
    verifier = keystore.verifier()
    state_machine_factory = payload.state_machine_factory()
    replicas = {}
    for replica_id in replica_ids or config.all_replicas:
        replica = SeeMoReReplica(
            node_id=replica_id,
            runtime=runtime,
            config=config,
            signer=keystore.signer_for(replica_id),
            verifier=verifier,
            state_machine=state_machine_factory(),
            initial_mode=Mode[workload.mode],
        )
        runtime.register(replica)
        replicas[replica_id] = replica
    return replicas


class _ArrivalWindow(PoissonArrivals):
    """Poisson arrivals from ``origin`` for ``length`` seconds, then none.

    Counting from ``origin`` and not from runtime construction keeps set-up
    time from turning into a burst of already-due arrivals.  Ending the
    arrivals here, where ``OpenLoopDriver.stop`` would also stop the
    connection, lets everything that was offered drain before the repeat ends.
    """

    def __init__(self, rate: float, length: float, seed: int) -> None:
        super().__init__(rate, seed=seed)
        self.origin = 0.0
        self.length = length

    def next_after(self, t: float) -> float:
        due = super().next_after(max(t, self.origin))
        return due if due < self.origin + self.length else float("inf")


class _Load:
    """The client side of one TCP repeat: closed loop, or open loop with a driver."""

    def __init__(
        self, runtime, workload: WorkloadDef, size: float, seed: int, repeat: int = 0
    ) -> None:
        config, keystore, payload = _shared_material(workload, seed)
        self.runtime = runtime
        self.size = size
        self.driver: Optional[OpenLoopDriver] = None
        self.yardstick = Yardstick(clock=time.monotonic)
        operation_factory = payload.operation_factory(client_seed=seed)
        common = dict(
            node_id=CLIENT_ID,
            runtime=runtime,
            signer=keystore.signer_for(CLIENT_ID),
            verifier=keystore.verifier(),
            config=client_config_for_mode(
                config, Mode[workload.mode], request_timeout=CLIENT_REQUEST_TIMEOUT
            ),
            window=workload.window,
        )
        if workload.open_loop_rate is None:
            self.client = Client(
                operation_factory=operation_factory, max_requests=int(size), **common
            )
            runtime.register(self.client)
        else:
            self.client = OpenLoopConnection(operation_factory=lambda timestamp: None, **common)
            runtime.register(self.client)
            # Every repeat of a run draws its own arrival times from the run's
            # seed, so a run does not measure one arrival pattern several times.
            self.arrivals = _ArrivalWindow(
                workload.open_loop_rate, length=size, seed=seed * 100 + repeat
            )
            self.driver = OpenLoopDriver(
                runtime,
                ClientPopulation(num_users=1000, arrivals=self.arrivals, seed=seed),
                [self.client],
                operation_source=operation_factory,
            )

    def start(self) -> None:
        self.yardstick.tick()
        if self.driver is not None:
            self.arrivals.origin = self.runtime.now
            self.driver.start()
        else:
            self.client.start()

    def finished(self) -> bool:
        """True once the load is done; stops timers before the loop can exit.

        Called from the runtime's ``until`` predicate, so the driver and the
        client are stopped while the event loop is still running: a timer
        firing after the loop is gone raises ``loop is not running``.
        """
        client, driver = self.client, self.driver
        self.yardstick.poll()
        if driver is None:
            if client.completed_count < int(self.size):
                return False
            client.stop()
            return True
        since_last_arrival = self.runtime.now - self.arrivals.origin - self.size
        if since_last_arrival < 0:
            return False
        if (client.outstanding_count or driver.backlog_depth) and since_last_arrival < DRAIN_GRACE:
            return False
        driver.stop()
        return True

    def harvest(self) -> Dict[str, Any]:
        client, driver = self.client, self.driver
        completions = [(record.sent_at, record.completed_at) for record in client.completed]
        timestamps = [record.timestamp for record in client.completed]
        out = {
            "completions": completions,
            "duplicate_completions": len(timestamps) - len(set(timestamps)),
            "outstanding": client.outstanding_count,
            "attempted": int(self.size),
            "ticks": self.yardstick.ticks,
            # Completions are stamped on the runtime's clock, ticks on the
            # machine-wide monotonic one, which every process of a run shares.
            "clock_offset": time.monotonic() - self.runtime.now,
            "counters": {
                "client_retransmits": client.timeouts,
                "verified": client._window_verifier.messages_verified,
                "hmac_fallbacks": client._window_verifier.fallback_verifications,
                "cpu_busy_s": client.process.busy_time,
                "cpu_items": client.process.items_processed,
            },
        }
        if driver is not None:
            out["attempted"] = driver.offered
            out["counters"].update(
                offered=driver.offered,
                dropped=driver.dropped,
                shed=driver.shed,
                backlog_at_stop=driver.backlog_depth,
            )
        return out


def _harvest_replicas(replicas: Dict[str, SeeMoReReplica]) -> Dict[str, Any]:
    """Ledgers, exactly-once evidence and additive counters of a replica group."""
    duplicates = 0
    for replica in replicas.values():
        keys = [(each.client_id, each.timestamp) for each in replica.executor.executed]
        duplicates += len(keys) - len(set(keys))
    batch_sizes = [
        size for replica in replicas.values() for size in replica.batcher.proposed_batch_sizes
    ]
    return {
        "ledgers": [replica.ledger for replica in replicas.values()],
        "duplicate_executions": duplicates,
        "executed_max": max(len(replica.executor.executed) for replica in replicas.values()),
        "view_max": max(replica.view for replica in replicas.values()),
        "batches": len(batch_sizes),
        "batched_requests": sum(batch_sizes),
        "counters": {
            "busy_rejects": sum(replica.busy_rejects_sent for replica in replicas.values()),
            "verified": sum(r.window_verifier.messages_verified for r in replicas.values()),
            "hmac_fallbacks": sum(
                r.window_verifier.fallback_verifications for r in replicas.values()
            ),
            "cpu_busy_s": sum(replica.process.busy_time for replica in replicas.values()),
            "cpu_items": sum(replica.process.items_processed for replica in replicas.values()),
        },
    }


def _catch_loop_errors(errors: List[str]) -> None:
    """Route unretrieved asyncio exceptions into ``errors`` (call inside the loop)."""

    def handler(loop, context) -> None:
        errors.append(f"{context.get('message')}: {context.get('exception')!r}")

    asyncio.get_running_loop().set_exception_handler(handler)


def _tcp_observation(
    workload: WorkloadDef,
    load: Dict[str, Any],
    groups: List[Dict[str, Any]],
    violations: List[str],
) -> Observation:
    """Checks and numbers shared by the aio and proc backends."""
    conflicts = find_safety_violations(
        [ledger for group in groups for ledger in group["ledgers"]]
    )
    if conflicts:
        violations.append(f"ledger safety violated: {conflicts[0]}")
    if any(group["duplicate_executions"] for group in groups) or load["duplicate_completions"]:
        violations.append("a request was executed or completed more than once")
    completions = sorted(load["completions"], key=lambda pair: pair[1])
    if max(group["executed_max"] for group in groups) < len(completions):
        violations.append("the client completed more requests than any replica executed")
    counters: Dict[str, float] = {}
    for part in [load] + groups:
        for key, value in part["counters"].items():
            counters[key] = counters.get(key, 0) + value
    # Open loop: shed and dropped arrivals are inside ``offered``, and so is
    # whatever was still queued or in flight when the drain grace ran out.
    failed = load["attempted"] - len(completions)
    if workload.open_loop_rate is None:
        if load["outstanding"] or failed:
            violations.append(f"{failed} closed-loop request(s) never completed")
    elif counters["backlog_at_stop"]:
        violations.append(f"open loop left a backlog of {counters['backlog_at_stop']}")
    if counters["client_retransmits"]:
        violations.append("client retransmitted on a fault-free workload")
    kept = completions[int(len(completions) * WARMUP_FRACTION):]
    window_s = kept[-1][1] - kept[0][1] if len(kept) > 1 else 0.0
    # Every process of the run carried a yardstick; each one's reading counts
    # by the CPU time its process used, so the core doing most of the work
    # says most about the speed the work saw.
    offset = load["clock_offset"]
    window = (kept[0][1] + offset, kept[-1][1] + offset) if kept else (0.0, 0.0)
    tickers = [part for part in [load] + groups if part.get("ticks")]
    host_speed = sum(
        part.get("cpu_s", 1.0) * speed_over(part["ticks"], *window) for part in tickers
    ) / sum(part.get("cpu_s", 1.0) for part in tickers)
    batches = sum(group["batches"] for group in groups)
    counters.update(
        view_changes=max(group["view_max"] for group in groups),
        batch_size_mean=(
            sum(group["batched_requests"] for group in groups) / batches if batches else 1.0
        ),
    )
    return {
        "attempted": load["attempted"],
        "completed": len(completions),
        "failed": failed,
        "throughput_rps": (len(kept) - 1) / window_s if window_s > 0 else 0.0,
        "latencies_ms": [(done - sent) * 1e3 for sent, done in kept],
        "host_speed": host_speed,
        "paced": workload.open_loop_rate is not None,
        "wall_clock_latency": True,
        "completion_times": [done for _, done in completions],
        "violations": violations,
        "counters": counters,
    }


def _run_aio(
    workload: WorkloadDef, size: float, seed: int, trace: bool, repeat: int
) -> Observation:
    cpu_before = cpu_seconds()
    # Installed before the cluster exists: timers keep the bound method they
    # were created with, so a callback wrapped afterwards would go untraced.
    instrumentation = Instrumentation("main", wall_clock=True).install() if trace else None
    before = chunk()
    started = time.perf_counter()
    runtime = AioRuntime()
    replicas = _wire_replicas(runtime, workload, seed)
    load = _Load(runtime, workload, size, seed, repeat)
    build_s = time.perf_counter() - started
    errors: List[str] = []
    marks: Dict[str, float] = {}

    def kickoff() -> None:
        _catch_loop_errors(errors)
        marks["go"] = time.perf_counter()
        load.start()

    def until() -> bool:
        if not load.finished():
            return False
        marks.setdefault("end", time.perf_counter())
        return True

    try:
        met = runtime.run(kickoff=kickoff, until=until, timeout=RUN_TIMEOUT)
    finally:
        if instrumentation is not None:
            instrumentation.uninstall()
    cpu_s = cpu_seconds() - cpu_before
    violations = [f"asyncio: {error}" for error in errors]
    if not met:
        violations.append(f"timed out after {RUN_TIMEOUT} s")
    wall_s = marks.get("end", time.perf_counter()) - marks["go"]
    observation = _tcp_observation(
        workload, load.harvest(), [_harvest_replicas(replicas)], violations
    )
    observation["counters"].update(
        msgs_delivered=runtime.messages_delivered,
        msgs_dropped=0,
        bytes_delivered=runtime.bytes_delivered,
        build_s=build_s,
    )
    observation.update(
        setup_s=marks["go"] - started,
        # load.start() ticks before anything else, right after marks["go"].
        setup_speed=speed_now(before, load.yardstick.ticks[0][1]),
        wall_s=wall_s,
        cpu_s=cpu_s,
        worker_rss_mb=0.0,
        traces=[instrumentation.export(wall_s)] if instrumentation else [],
    )
    return observation


# -- proc backend: module-level build callables (picklable under ``spawn``) -----


def _worker_plan(
    instrumentation: Optional[Instrumentation], harvest: Callable[[], Dict[str, Any]], **plan
):
    """A ``WorkerPlan`` whose harvest also carries RSS, loop errors, ticks and spans."""
    errors: List[str] = []
    marks: Dict[str, float] = {}
    inner_kickoff = plan.pop("kickoff", None)
    # The client's load ticks from its ``until`` poll; a worker without one
    # ticks from a timer of its event loop.
    yardstick = Yardstick(clock=time.monotonic) if "until" not in plan else None
    timer: List[asyncio.TimerHandle] = []

    def tick() -> None:
        yardstick.tick()
        timer[:] = [asyncio.get_running_loop().call_later(TICK_INTERVAL_S, tick)]

    def kickoff() -> None:
        _catch_loop_errors(errors)
        marks["go"] = time.perf_counter()
        if yardstick is not None:
            tick()
        if inner_kickoff is not None:
            inner_kickoff()

    def harvest_all() -> Dict[str, Any]:
        out = harvest()
        out["cpu_s"] = time.process_time()
        if yardstick is not None:
            for handle in timer:
                handle.cancel()
            out["ticks"] = yardstick.ticks
        out["rss_mb"] = peak_rss_mb()
        out["loop_errors"] = errors
        if instrumentation is not None:
            out["trace"] = instrumentation.export(time.perf_counter() - marks["go"])
        return out

    return WorkerPlan(kickoff=kickoff, harvest=harvest_all, **plan)


def _pin_to_core(index: int) -> None:
    """Give this worker the ``index``-th core the run may use, for good.

    Left to itself the kernel sometimes stacks the client on the replica
    group's core and sometimes spreads them, and the run reads 590 or
    715 req/s accordingly, whatever the program does.
    """
    cores = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cores[index % len(cores)]})


def replica_worker(runtime, name, workload, seed, trace, replica_ids, core):
    _pin_to_core(core)
    instrumentation = Instrumentation(name, wall_clock=True).install() if trace else None
    replicas = _wire_replicas(runtime, workload, seed, replica_ids)
    return _worker_plan(instrumentation, lambda: _harvest_replicas(replicas))


def client_worker(runtime, name, workload, seed, trace, size, core):
    _pin_to_core(core)
    instrumentation = Instrumentation(name, wall_clock=True).install() if trace else None
    load = _Load(runtime, workload, size, seed)
    return _worker_plan(
        instrumentation,
        load.harvest,
        kickoff=load.start,
        until=load.finished,
        progress=lambda: load.client.completed_count,
    )


class _CountingCluster(ProcCluster):
    """A supervisor that counts the periodic stats messages it receives."""

    stats_msgs = 0

    def _dispatch(self, name, worker, message) -> None:
        if message[0] == "stats":
            self.stats_msgs += 1
        super()._dispatch(name, worker, message)


def _run_proc(
    workload: WorkloadDef, size: float, seed: int, trace: bool, repeat: int
) -> Observation:
    cpu_before = cpu_seconds()
    before = chunk()
    started = time.perf_counter()
    config, _, _ = _shared_material(workload, seed)
    replica_ids = list(config.all_replicas)
    shared = {"workload": workload, "seed": seed, "trace": trace}
    specs = [
        WorkerSpec(
            name=f"replicas-{index}",
            build=replica_worker,
            kwargs={
                "name": f"replicas-{index}",
                "replica_ids": tuple(replica_ids[index::workload.replica_workers]),
                "core": index,
                **shared,
            },
        )
        for index in range(workload.replica_workers)
    ]
    specs.append(
        WorkerSpec(
            name="client",
            build=client_worker,
            kwargs={"name": "client", "size": size, "core": workload.replica_workers, **shared},
        )
    )
    cluster = _CountingCluster(specs)
    build_s = time.perf_counter() - started
    # The workers install their own tracers (see _worker_plan); the
    # supervisor runs no protocol code, so nothing is traced here.
    cluster.start()
    go = time.perf_counter()
    after = chunk()
    met = cluster.wait(RUN_TIMEOUT)
    waited = time.perf_counter()
    result = cluster.shutdown()
    stopped = time.perf_counter()
    cpu_s = cpu_seconds() - cpu_before
    violations = [f"worker died: {name}" for name in result.deaths]
    violations += [f"worker error: {error.strip().splitlines()[-1]}" for error in result.errors]
    if not met:
        violations.append(f"timed out after {RUN_TIMEOUT} s")
    missing = [spec.name for spec in specs if spec.name not in result.harvests]
    if missing:
        raise RuntimeError(f"proc run lost the harvest of {missing}: {violations}")
    harvests = result.harvests
    for name, harvest in harvests.items():
        violations += [f"asyncio in {name}: {error}" for error in harvest["loop_errors"]]
    groups = [harvests[spec.name] for spec in specs[:-1]]
    observation = _tcp_observation(workload, harvests["client"], groups, violations)
    busy_by_worker = [
        sum(node["busy_time"] for node in snapshot.get("nodes", {}).values())
        for snapshot in result.stats.values()
    ]
    observation["counters"].update(
        msgs_delivered=result.messages_delivered(),
        msgs_dropped=0,
        bytes_delivered=result.bytes_delivered(),
        build_s=build_s,
        spawn_s=go - started,
        shutdown_s=stopped - waited,
        busy_s_max_worker=max(busy_by_worker, default=0.0),
        stats_msgs=cluster.stats_msgs,
    )
    observation.update(
        setup_s=go - started,
        setup_speed=speed_now(before, after),
        wall_s=waited - go,
        cpu_s=cpu_s,
        worker_rss_mb=sum(harvest["rss_mb"] for harvest in harvests.values()),
        traces=[harvests[spec.name]["trace"] for spec in specs] if trace else [],
    )
    return observation


# -- simulator backends -------------------------------------------------------------


class _SimProbe(InvariantChecker):
    """Captures the deployment and stamps wall time at simulated instants.

    ``run_scenario`` builds the deployment itself; a checker is the public way
    to get hold of it before the clients start.
    """

    name = "e2e-probe"

    def __init__(self, warmup: float, duration: float) -> None:
        self.warmup = warmup
        self.duration = duration
        self.marks: Dict[str, Tuple[float, float, int]] = {}
        self.deployment = None
        self.yardstick = Yardstick()

    def attach(self, deployment) -> None:
        self.deployment = deployment
        simulator = deployment.simulator
        self.mark("attach")
        simulator.call_at(simulator.now + self.warmup, lambda: self.mark("warm"))
        simulator.call_at(simulator.now + self.warmup + self.duration, lambda: self.mark("end"))
        step = (self.warmup + self.duration) / SIM_TICKS
        for index in range(SIM_TICKS + 1):
            simulator.call_at(simulator.now + index * step, self.yardstick.tick)

    def mark(self, label: str) -> None:
        deployment = self.deployment
        self.marks[label] = (
            time.perf_counter(), deployment.simulator.now, deployment.metrics.completed
        )

    def finalize(self, deployment) -> List[str]:
        self.mark("settled")
        return []


def _sim_observation(
    probe: _SimProbe,
    before: float,
    started: float,
    cpu_before: float,
    replicas: Sequence[Any],
    clients: Sequence[Any],
    violations: List[str],
    instrumentation: Optional[Instrumentation],
    extra_counters: Dict[str, float],
) -> Observation:
    deployment = probe.deployment
    attach, warm, end, settled = (probe.marks[key] for key in ("attach", "warm", "end", "settled"))
    ticks = probe.yardstick.ticks
    records = deployment.metrics.records
    kept = [record for record in records if warm[1] < record.completed_at <= end[1]]
    outstanding = sum(client.outstanding_count for client in clients)
    if outstanding:
        violations.append(f"{outstanding} closed-loop request(s) never completed")
    network = deployment.network
    batch_sizes = [
        size for replica in replicas for size in replica.batcher.proposed_batch_sizes
    ]
    window_wall = end[0] - warm[0]
    run_wall = settled[0] - attach[0]
    counters = {
        "client_retransmits": sum(client.timeouts for client in clients),
        "verified": sum(r.window_verifier.messages_verified for r in replicas)
        + sum(c._window_verifier.messages_verified for c in clients),
        "hmac_fallbacks": sum(r.window_verifier.fallback_verifications for r in replicas)
        + sum(c._window_verifier.fallback_verifications for c in clients),
        "busy_rejects": sum(replica.busy_rejects_sent for replica in replicas),
        "view_changes": max(replica.view for replica in replicas),
        "batch_size_mean": sum(batch_sizes) / len(batch_sizes) if batch_sizes else 1.0,
        "msgs_delivered": network.messages_delivered,
        "msgs_dropped": network.messages_dropped,
        "bytes_delivered": network.bytes_delivered,
        "sim_events": deployment.simulator.events_processed,
        "build_s": attach[0] - started,
    }
    counters.update(extra_counters)
    return {
        "attempted": len(records) + outstanding,
        "completed": len(records),
        "failed": outstanding,
        "throughput_rps": (end[2] - warm[2]) / window_wall if window_wall > 0 else 0.0,
        "latencies_ms": [record.latency * 1e3 for record in kept],
        "host_speed": speed_over(ticks, warm[0], end[0]),
        "paced": False,
        "wall_clock_latency": False,
        "completion_times": sorted(record.completed_at for record in records),
        "violations": violations,
        "counters": counters,
        "setup_s": attach[0] - started,
        # The first tick is due at the simulated instant of the attach.
        "setup_speed": speed_now(before, ticks[0][1]),
        "wall_s": run_wall,
        "cpu_s": cpu_seconds() - cpu_before,
        "worker_rss_mb": 0.0,
        "traces": [instrumentation.export(run_wall)] if instrumentation else [],
    }


def _run_sim(
    workload: WorkloadDef, size: float, seed: int, trace: bool, repeat: int
) -> Observation:
    cpu_before = cpu_seconds()
    scenario = Scenario(
        name=workload.name,
        description=workload.why,
        events=(Crash(at=size / 3, target="primary"),) if workload.crash_primary else (),
        expectations=(ViewAdvanced(min_view=1),) if workload.crash_primary else (),
        duration=size,
        settle=SIM_SETTLE,
        num_clients=workload.clients,
        client_window=workload.window,
        batch_policy=_batch_policy(workload) if workload.batch else None,
        workload=workload.payload,
        seed=seed,
    )
    probe = _SimProbe(warmup=size * WARMUP_FRACTION, duration=size * (1 - WARMUP_FRACTION))
    instrumentation = Instrumentation("main", wall_clock=False).install() if trace else None
    before = chunk()
    started = time.perf_counter()
    try:
        result = run_scenario(scenario, Mode[workload.mode], checkers=[probe] + default_checkers())
    finally:
        if instrumentation is not None:
            instrumentation.uninstall()
    deployment = probe.deployment
    violations = list(result.failures())
    expected_view = 1 if workload.crash_primary else 0
    if result.max_view != expected_view:
        violations.append(f"{result.max_view} view change(s), expected {expected_view}")
    if not workload.crash_primary and result.client_timeouts:
        violations.append("client retransmitted on a fault-free workload")
    return _sim_observation(
        probe,
        before,
        started,
        cpu_before,
        list(deployment.replicas.values()),
        deployment.clients,
        violations,
        instrumentation,
        {},
    )


def _run_sim_sharded(
    workload: WorkloadDef, size: float, seed: int, trace: bool, repeat: int
) -> Observation:
    cpu_before = cpu_seconds()
    instrumentation = Instrumentation("main", wall_clock=False).install() if trace else None
    before = chunk()
    started = time.perf_counter()
    try:
        deployment = build_sharded_seemore(
            num_shards=workload.shards,
            num_clients=workload.clients,
            seed=seed,
            batch_policy=_batch_policy(workload),
            client_window=workload.window,
            workload=Workload.build(
                WorkloadSpec(
                    kind="sharded-kv",
                    seed=seed,
                    cross_shard_fraction=workload.cross_shard_fraction,
                )
            ),
        )
        warmup = size * WARMUP_FRACTION
        probe = _SimProbe(warmup=warmup, duration=size - warmup)
        probe.attach(deployment)
        violations: List[str] = []
        try:
            # Raises on a per-shard ledger conflict or a cross-shard
            # transaction that committed on one shard and aborted on another.
            run_sharded_deployment(deployment, duration=size - warmup, warmup=warmup)
        except AssertionError as error:
            violations.append(str(error))
        deployment.run(SIM_SETTLE)
        probe.finalize(deployment)
    finally:
        if instrumentation is not None:
            instrumentation.uninstall()
    transactions = deployment.transaction_stats()
    if transactions["aborted"]:
        violations.append(f"{transactions['aborted']} cross-shard transaction(s) aborted")
    replicas = [replica for shard in deployment.shards for replica in shard.replicas.values()]
    if any(client.timeouts for client in deployment.clients):
        violations.append("client retransmitted on a fault-free workload")
    return _sim_observation(
        probe,
        before,
        started,
        cpu_before,
        replicas,
        deployment.clients,
        violations,
        instrumentation,
        {"txns": transactions["started"], "txn_aborts": transactions["aborted"]},
    )


_BACKENDS = {
    "aio": _run_aio,
    "proc": _run_proc,
    "sim": _run_sim,
    "sim-sharded": _run_sim_sharded,
}


def run_once(
    workload: WorkloadDef, size: float, seed: int, trace: bool = False, repeat: int = 0
) -> Observation:
    """Build the workload's cluster, run one repeat of ``size``, check it, tear it down.

    ``repeat`` numbers the repeats of one run; only the open-loop arrival
    times depend on it, everything else is a function of ``seed`` alone.
    """
    return _BACKENDS[workload.backend](workload, size, seed, trace, repeat)
