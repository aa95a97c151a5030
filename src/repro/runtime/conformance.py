"""Conformance oracle: the sim and aio backends must commit the same thing.

The discrete-event simulator is only a trustworthy measurement instrument
if the protocol code it runs behaves identically on a real network stack.
This harness runs the *same* workload — same cluster shape, same client,
same request count — through both runtime backends and asserts:

* **safety within each backend**: every correct replica's flattened
  committed-request sequence is a prefix of every other's (batch
  boundaries may differ, so the comparison flattens batches to the inner
  ``(client_id, timestamp)`` pairs and drops view-change noops);
* **exactly-once**: no backend commits a client request twice;
* **ledger conformance across backends**: the two canonical committed
  sequences agree on their common prefix, and both contain every issued
  request;
* **reply conformance**: for every timestamp, the result digest the
  replicas cached (what clients vote on) is identical across backends;
* **no retransmission**: neither leg's client retransmitted.  Every leg is
  fault-free, so a retransmission means a reply entry was lost, which the
  single-request reply to the retransmission would otherwise paper over.

Batch boundaries and cross-slot grouping legitimately differ between
backends — real scheduling jitter changes how many requests share a
batch — which is why the oracle compares flattened per-client sequences
rather than slot-by-slot ledgers.  With a single client the flattened
sequence is total, so this is a complete ordering check.

Run directly for the standard matrix (all three modes, f=1; ``--tolerance 2``
for c = m = 2)::

    PYTHONPATH=src python -m repro.runtime.conformance
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster.builders import PROC_PIPELINE_DEPTH, build_proc_seemore
from repro.cluster.wiring import ShardSpec, new_keystore, wire_group
from repro.core import BatchPolicy, Mode, SeeMoReReplica
from repro.smr.replica import NOOP_CLIENT
from repro.net.latency import UniformLatencyModel
from repro.net.network import Network
from repro.net.topology import Placement
from repro.runtime.aio import AioRuntime
from repro.runtime.api import Runtime
from repro.runtime.sim import SimRuntime
from repro.sim.simulator import Simulator
from repro.smr.client import Client
from repro.smr.ledger import find_safety_violations
from repro.smr.messages import requests_of
from repro.smr.state_machine import result_digest
from repro.workload.client_pool import ClientPool
from repro.workload.generator import Workload

#: The client pool's name prefix, and the id of its one client.
CLIENT_PREFIX = "conformance-client"
CLIENT_ID = f"{CLIENT_PREFIX}-0"

#: Conservative real-time knobs for the aio leg: loopback scheduling noise
#: must never masquerade as a fault, so view-change and client-retransmit
#: timers are far above any plausible event-loop stall.
AIO_REQUEST_TIMEOUT = 5.0
AIO_CLIENT_TIMEOUT = 2.0


class RecordingReplica(SeeMoReReplica):
    """A replica that records its flattened commit order.

    ``commit_slot`` is the backend-agnostic choke point every committed
    slot passes through, on every mode and every runtime; appending the
    inner request ids there yields exactly the sequence the oracle
    compares.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.commit_trace: List[Tuple[str, int]] = []

    def commit_slot(self, sequence, request, view, send_reply, mode_id=0):
        for each in requests_of(request):
            if each.client_id != NOOP_CLIENT:
                self.commit_trace.append((each.client_id, each.timestamp))
        return super().commit_slot(sequence, request, view, send_reply, mode_id)

    def reply_digests(self, client_id: str) -> Dict[int, str]:
        """Digest of every reply cached for ``client_id`` (what its votes compare)."""
        return {
            timestamp: result_digest(result)
            for timestamp, result in self.executor.replies_to(client_id).items()
        }

    def harvest(self, client_id: str) -> Dict[str, object]:
        """All the oracle needs from a replica in another process, as plain data."""
        return {
            "commit_trace": list(self.commit_trace),
            "ledger": self.ledger,
            "committed_count": self.committed_count,
            "last_executed": self.last_executed,
            "reply_digests": self.reply_digests(client_id),
        }


@dataclass
class BackendTrace:
    """What one backend committed, flattened and canonicalized."""

    backend: str
    mode: Mode
    completed: int
    commit_trace: Tuple[Tuple[str, int], ...]
    reply_digests: Dict[int, str]
    client_retransmits: int


def oracle_cluster(
    runtime: Runtime,
    mode: Mode,
    num_requests: int,
    window: int,
    request_timeout: float,
    client_timeout: float,
    max_batch: int,
    seed: int = 0,
    tolerance: int = 1,
) -> Tuple[Dict[str, RecordingReplica], Client]:
    """The oracle's c = m = ``tolerance`` cluster plus one closed-loop client on ``runtime``.

    Wired by the same :func:`~repro.cluster.wiring.wire_group` and client
    pool the cluster builders and the proc workers use, with
    :class:`RecordingReplica` substituted — so what the oracle compares
    across backends is what the builders build.
    """
    settings = ShardSpec(
        mode=mode,
        crash_tolerance=tolerance,
        byzantine_tolerance=tolerance,
        request_timeout=request_timeout,
        batch_policy=BatchPolicy(max_batch=max_batch, pipeline_depth=PROC_PIPELINE_DEPTH),
    )
    workload = Workload.build("0/0")
    keystore = new_keystore("conformance", seed)
    group = wire_group(
        runtime, keystore, "seemore", settings, workload, replica_class=RecordingReplica
    )
    pool = ClientPool(
        runtime,
        keystore,
        Placement(),
        [group.client_config(client_timeout)],
        workload,
        name_prefix=CLIENT_PREFIX,
    )
    (client,) = pool.spawn(1, max_requests_each=num_requests, window=window)
    return group.replicas, client


def _canonical_sequence(
    backend: str, traces, num_requests: int
) -> Tuple[Tuple[str, int], ...]:
    """The longest commit trace, after asserting all traces agree on their
    common prefixes and nothing committed twice.

    Works on plain flattened traces so the proc backend can feed it
    harvested data from worker processes.
    """
    ordered = sorted((list(trace) for trace in traces), key=len, reverse=True)
    canonical = tuple(tuple(entry) for entry in ordered[0])
    for trace in ordered[1:]:
        if tuple(tuple(entry) for entry in trace) != canonical[: len(trace)]:
            raise AssertionError(
                f"[{backend}] replicas disagree on flattened commit order"
            )
    seen = set()
    for entry in canonical:
        if entry in seen:
            raise AssertionError(f"[{backend}] request committed twice: {entry}")
        seen.add(entry)
    if len(canonical) < num_requests:
        raise AssertionError(
            f"[{backend}] committed only {len(canonical)}/{num_requests} requests"
        )
    return canonical


def _in_process_trace(
    backend: str, mode: Mode, replicas: Dict[str, RecordingReplica], client: Client
) -> BackendTrace:
    """Canonicalize what an in-process leg's replicas committed."""
    violations = find_safety_violations([replica.ledger for replica in replicas.values()])
    if violations:
        raise AssertionError(f"[{backend}] ledger safety violated: {violations[0]}")
    traces = [replica.commit_trace for replica in replicas.values()]
    return BackendTrace(
        backend=backend,
        mode=mode,
        completed=client.completed_count,
        commit_trace=_canonical_sequence(backend, traces, client.max_requests),
        reply_digests=max(
            replicas.values(), key=lambda replica: replica.last_executed
        ).reply_digests(client.node_id),
        client_retransmits=client.timeouts,
    )


def run_sim(
    mode: Mode, num_requests: int, window: int, max_batch: int, seed: int = 0, tolerance: int = 1
) -> BackendTrace:
    """One deterministic leg on the discrete-event backend."""
    simulator = Simulator()
    network = Network(
        simulator, latency_model=UniformLatencyModel(base=0.0002, jitter=0.0), seed=seed
    )
    replicas, client = oracle_cluster(
        SimRuntime(simulator, network),
        mode,
        num_requests,
        window,
        request_timeout=0.02,
        client_timeout=0.2,
        max_batch=max_batch,
        seed=seed,
        tolerance=tolerance,
    )
    client.start()
    simulator.run(until=60.0)
    if client.completed_count < num_requests:
        raise AssertionError(
            f"[sim] client completed {client.completed_count}/{num_requests}"
        )
    return _in_process_trace("sim", mode, replicas, client)


def run_aio(
    mode: Mode,
    num_requests: int,
    window: int,
    max_batch: int,
    seed: int = 0,
    timeout: float = 60.0,
    tolerance: int = 1,
) -> BackendTrace:
    """One real-network leg: one asyncio event loop over loopback TCP."""
    runtime = AioRuntime()
    replicas, client = oracle_cluster(
        runtime,
        mode,
        num_requests,
        window,
        request_timeout=AIO_REQUEST_TIMEOUT,
        client_timeout=AIO_CLIENT_TIMEOUT,
        max_batch=max_batch,
        seed=seed,
        tolerance=tolerance,
    )
    finished = runtime.run(
        kickoff=client.start,
        until=lambda: client.completed_count >= num_requests,
        timeout=timeout,
    )
    if not finished:
        raise AssertionError(
            f"[aio] timed out with {client.completed_count}/{num_requests} completed"
        )
    return _in_process_trace("aio", mode, replicas, client)


def run_proc(
    mode: Mode,
    num_requests: int,
    window: int,
    max_batch: int,
    seed: int = 0,
    timeout: float = 60.0,
    num_procs: int = 2,
    tolerance: int = 1,
) -> BackendTrace:
    """One multiprocess leg: worker processes over loopback TCP.

    Replica ledgers, flattened commit traces, and cached-reply digests are
    harvested from the worker processes at shutdown and fed through the
    same canonicalization as the in-process backends.
    """
    cluster = build_proc_seemore(
        mode=mode,
        num_procs=num_procs,
        num_requests=num_requests,
        window=window,
        max_batch=max_batch,
        crash_tolerance=tolerance,
        byzantine_tolerance=tolerance,
        request_timeout=AIO_REQUEST_TIMEOUT,
        client_timeout=AIO_CLIENT_TIMEOUT,
        seed=seed,
        client_id=CLIENT_PREFIX,
    )
    result = cluster.run(timeout=timeout)
    if not result.met:
        completed = result.harvests.get("client", {}).get("completed", "?")
        raise AssertionError(
            f"[proc] timed out with {completed}/{num_requests} completed "
            f"(deaths={result.deaths}, errors={result.errors})"
        )
    harvested: Dict[str, Dict[str, object]] = {}
    for name, harvest in result.harvests.items():
        if name.startswith("replicas-"):
            harvested.update(harvest)
    violations = find_safety_violations([data["ledger"] for data in harvested.values()])
    if violations:
        raise AssertionError(f"[proc] ledger safety violated: {violations[0]}")
    best = max(harvested.values(), key=lambda data: data["last_executed"])
    return BackendTrace(
        backend="proc",
        mode=mode,
        completed=result.harvests["client"]["completed"],
        commit_trace=_canonical_sequence(
            "proc",
            [data["commit_trace"] for data in harvested.values()],
            num_requests,
        ),
        reply_digests=dict(best["reply_digests"]),
        client_retransmits=result.harvests["client"]["timeouts"],
    )


_REAL_BACKENDS = {"aio": run_aio, "proc": run_proc}


def _assert_no_retransmits(trace: BackendTrace) -> None:
    """Every leg is fault-free: a retransmission means a reply entry was lost."""
    if trace.client_retransmits:
        raise AssertionError(
            f"[{trace.mode.name}] the {trace.backend} client retransmitted "
            f"{trace.client_retransmits} times on a fault-free run"
        )


def check_mode(
    mode: Mode,
    num_requests: int = 120,
    window: int = 8,
    max_batch: int = 8,
    seed: int = 0,
    timeout: float = 60.0,
    backend: str = "aio",
    num_procs: int = 2,
    tolerance: int = 1,
) -> Dict[str, object]:
    """Run the sim oracle plus one real backend for ``mode`` and assert
    they conform.

    ``backend`` picks the real leg: ``"aio"`` (one event loop) or
    ``"proc"`` (``num_procs`` replica processes + a client process), on a
    cluster of c = m = ``tolerance``.
    Returns a small summary dict (used by the CLI entry point and tests).
    """
    sim = run_sim(mode, num_requests, window, max_batch, seed=seed, tolerance=tolerance)
    _assert_no_retransmits(sim)
    if backend == "aio":
        real = run_aio(
            mode, num_requests, window, max_batch,
            seed=seed, timeout=timeout, tolerance=tolerance,
        )
    elif backend == "proc":
        real = run_proc(
            mode, num_requests, window, max_batch,
            seed=seed, timeout=timeout, num_procs=num_procs, tolerance=tolerance,
        )
    else:
        raise ValueError(f"unknown real backend {backend!r}; choose aio or proc")

    _assert_no_retransmits(real)
    common = min(len(sim.commit_trace), len(real.commit_trace))
    if sim.commit_trace[:common] != real.commit_trace[:common]:
        for index in range(common):
            if sim.commit_trace[index] != real.commit_trace[index]:
                raise AssertionError(
                    f"[{mode.name}] committed sequences diverge at position {index}: "
                    f"sim={sim.commit_trace[index]} {backend}={real.commit_trace[index]}"
                )
    for timestamp in range(1, num_requests + 1):
        sim_digest = sim.reply_digests.get(timestamp)
        real_digest = real.reply_digests.get(timestamp)
        if sim_digest is None or real_digest is None:
            raise AssertionError(
                f"[{mode.name}] missing cached reply for timestamp {timestamp} "
                f"(sim={sim_digest is not None}, {backend}={real_digest is not None})"
            )
        if sim_digest != real_digest:
            raise AssertionError(
                f"[{mode.name}] reply digests differ at timestamp {timestamp}"
            )
    return {
        "mode": mode.name,
        "backend": backend,
        "tolerance": tolerance,
        "requests": num_requests,
        "sim_committed": len(sim.commit_trace),
        "real_committed": len(real.commit_trace),
        "common_prefix": common,
        "replies_compared": num_requests,
        "client_retransmits": sim.client_retransmits + real.client_retransmits,
    }


def check_all(
    modes: Tuple[Mode, ...] = (Mode.LION, Mode.DOG, Mode.PEACOCK),
    num_requests: int = 120,
    window: int = 8,
    max_batch: int = 8,
    timeout: float = 60.0,
    backend: str = "aio",
    num_procs: int = 2,
    tolerance: int = 1,
) -> List[Dict[str, object]]:
    """The standard conformance matrix: batched Lion/Dog/Peacock at f = ``tolerance``."""
    return [
        check_mode(mode, num_requests=num_requests, window=window,
                   max_batch=max_batch, timeout=timeout,
                   backend=backend, num_procs=num_procs, tolerance=tolerance)
        for mode in modes
    ]


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=120)
    parser.add_argument("--window", type=int, default=8)
    parser.add_argument("--max-batch", type=int, default=8)
    parser.add_argument("--timeout", type=float, default=60.0)
    parser.add_argument(
        "--mode",
        choices=[mode.name.lower() for mode in Mode],
        default=None,
        help="check a single mode instead of the full matrix",
    )
    parser.add_argument(
        "--backend",
        choices=sorted(_REAL_BACKENDS),
        default="aio",
        help="which real backend to check against the sim oracle",
    )
    parser.add_argument(
        "--procs",
        type=int,
        default=2,
        help="replica worker processes for --backend proc",
    )
    parser.add_argument(
        "--tolerance", type=int, default=1, help="c = m of the cluster (f = 1 by default)"
    )
    args = parser.parse_args(argv)
    modes = (Mode[args.mode.upper()],) if args.mode else (Mode.LION, Mode.DOG, Mode.PEACOCK)
    for summary in check_all(
        modes=modes,
        num_requests=args.requests,
        window=args.window,
        max_batch=args.max_batch,
        timeout=args.timeout,
        backend=args.backend,
        num_procs=args.procs,
        tolerance=args.tolerance,
    ):
        print(
            "conformance OK: mode={mode} backend={backend} tolerance={tolerance} "
            "requests={requests} sim_committed={sim_committed} real_committed={real_committed} "
            "common_prefix={common_prefix} client_retransmits={client_retransmits}".format(
                **summary
            )
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
