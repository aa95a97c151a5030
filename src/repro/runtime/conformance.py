"""Conformance oracle: the sim, aio and proc backends must commit the same thing.

The discrete-event simulator is only a trustworthy measurement instrument
if the protocol code it runs behaves identically on a real network stack.
This harness runs the *same* cluster — the worker specs of
:func:`~repro.cluster.builders.build_proc_seemore`, in worker processes on
proc and on one runtime in this process on sim and aio — through two
backends and asserts:

* **safety within each backend**: every correct replica's flattened
  committed-request sequence (its ``executor.executed``, in execution
  order) is a prefix of every other's (batch boundaries may differ, so the
  comparison flattens batches to the inner ``(client_id, timestamp)`` pairs
  and drops view-change noops);
* **exactly-once**: no backend commits a client request twice;
* **ledger conformance across backends**: the two canonical committed
  sequences agree on their common prefix, and both contain every issued
  request;
* **reply conformance**: for every timestamp, the result digest the
  replicas cached (what clients vote on) is identical across backends;
* **no retransmission**: neither leg's client retransmitted.  Every leg is
  fault-free, so a retransmission means a reply entry was lost, which the
  single-request reply to the retransmission would otherwise paper over.

Every leg hands one canonicalization the same harvests: ``"client"`` plus
one ``"replicas-i"`` per replica worker.  Batch boundaries and cross-slot
grouping legitimately differ between backends — real scheduling jitter
changes how many requests share a batch — which is why the oracle compares
flattened per-client sequences rather than slot-by-slot ledgers.  With a
single client the flattened sequence is total, so this is a complete
ordering check.

Run directly for the standard matrix (all three modes, f=1; ``--tolerance 2``
for c = m = 2)::

    PYTHONPATH=src python -m repro.runtime.conformance
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster.builders import build_proc_seemore
from repro.core import Mode
from repro.net.latency import UniformLatencyModel
from repro.net.network import Network
from repro.runtime.aio import AioRuntime
from repro.runtime.sim import SimRuntime
from repro.sim.simulator import Simulator
from repro.smr.ledger import find_safety_violations

#: The client pool's name prefix; its one client is ``conformance-client-0``.
CLIENT_PREFIX = "conformance-client"

#: Conservative real-time knobs for the aio and proc legs: loopback
#: scheduling noise must never masquerade as a fault, so view-change and
#: client-retransmit timers are far above any plausible event-loop stall.
AIO_REQUEST_TIMEOUT = 5.0
AIO_CLIENT_TIMEOUT = 2.0

#: ``(request_timeout, client_timeout)`` per backend; the simulator keeps
#: the sim builders' defaults.
TIMEOUTS = {
    "sim": (0.02, 0.2),
    "aio": (AIO_REQUEST_TIMEOUT, AIO_CLIENT_TIMEOUT),
    "proc": (AIO_REQUEST_TIMEOUT, AIO_CLIENT_TIMEOUT),
}

#: The backends :func:`check_mode` compares with the sim leg.
REAL_BACKENDS = ("aio", "proc")


@dataclass
class BackendTrace:
    """What one backend committed, flattened and canonicalized."""

    backend: str
    mode: Mode
    completed: int
    commit_trace: Tuple[Tuple[str, int], ...]
    reply_digests: Dict[int, str]
    client_retransmits: int


def _canonical_sequence(
    backend: str, traces, num_requests: int
) -> Tuple[Tuple[str, int], ...]:
    """The longest commit trace, after asserting all traces agree on their
    common prefixes and nothing committed twice.

    Works on plain flattened traces, harvested in this process or shipped
    from worker processes alike.
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


def _trace(
    backend: str, mode: Mode, harvests: Dict[str, Dict], num_requests: int
) -> BackendTrace:
    """Canonicalize one leg's harvests: ``"client"`` plus ``"replicas-i"`` per worker."""
    replicas: Dict[str, Dict[str, object]] = {}
    for name, harvest in harvests.items():
        if name.startswith("replicas-"):
            replicas.update(harvest)
    violations = find_safety_violations([data["ledger"] for data in replicas.values()])
    if violations:
        raise AssertionError(f"[{backend}] ledger safety violated: {violations[0]}")
    best = max(replicas.values(), key=lambda data: data["last_executed"])
    trace = BackendTrace(
        backend=backend,
        mode=mode,
        completed=harvests["client"]["completed"],
        commit_trace=_canonical_sequence(
            backend, [data["commit_trace"] for data in replicas.values()], num_requests
        ),
        reply_digests=dict(best["reply_digests"]),
        client_retransmits=harvests["client"]["timeouts"],
    )
    if trace.client_retransmits:
        # Every leg is fault-free: a retransmission means a reply entry was lost.
        raise AssertionError(
            f"[{mode.name}] the {backend} client retransmitted "
            f"{trace.client_retransmits} times on a fault-free run"
        )
    return trace


def run_leg(
    backend: str,
    mode: Mode,
    num_requests: int,
    window: int,
    max_batch: int,
    seed: int = 0,
    timeout: float = 60.0,
    num_procs: int = 2,
    tolerance: int = 1,
) -> BackendTrace:
    """One leg: :func:`build_proc_seemore`'s c = m = ``tolerance`` cluster on ``backend``.

    ``"proc"`` runs its worker specs in ``num_procs`` replica processes plus
    a client process.  ``"sim"`` (a 200 µs LAN) and ``"aio"`` (one event
    loop over loopback TCP) call the same spec builds on one runtime in
    this process, run it for ``timeout`` of its seconds (simulated ones on
    sim) and harvest the plans here.
    """
    if backend not in TIMEOUTS:
        raise ValueError(f"unknown backend {backend!r}; choose one of {sorted(TIMEOUTS)}")
    request_timeout, client_timeout = TIMEOUTS[backend]
    cluster = build_proc_seemore(
        mode=mode,
        num_procs=num_procs,
        num_requests=num_requests,
        window=window,
        max_batch=max_batch,
        crash_tolerance=tolerance,
        byzantine_tolerance=tolerance,
        request_timeout=request_timeout,
        client_timeout=client_timeout,
        seed=seed,
        client_id=CLIENT_PREFIX,
    )
    if backend == "proc":
        result = cluster.run(timeout=timeout)
        met, harvests = result.met, result.harvests
        why = f" (deaths={result.deaths}, errors={result.errors})"
    else:
        if backend == "sim":
            simulator = Simulator()
            latency = UniformLatencyModel(base=0.0002, jitter=0.0)
            runtime = SimRuntime(simulator, Network(simulator, latency, seed=seed))
        else:
            runtime = AioRuntime()
        plans = {spec.name: spec.build(runtime, **spec.kwargs) for spec in cluster.specs}

        def kickoff() -> None:
            for plan in plans.values():
                if plan.kickoff is not None:
                    plan.kickoff()

        def until() -> bool:
            return all(plan.until() for plan in plans.values() if plan.until is not None)

        met = runtime.run(kickoff=kickoff, until=until, timeout=timeout)
        harvests = {name: plan.harvest() for name, plan in plans.items()}
        why = ""
    if not met:
        completed = harvests.get("client", {}).get("completed", "?")
        raise AssertionError(
            f"[{backend}] timed out with {completed}/{num_requests} completed{why}"
        )
    return _trace(backend, mode, harvests, num_requests)


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
    if backend not in REAL_BACKENDS:
        raise ValueError(f"unknown real backend {backend!r}; choose aio or proc")
    sim, real = (
        run_leg(leg, mode, num_requests, window, max_batch, seed, timeout, num_procs, tolerance)
        for leg in ("sim", backend)
    )
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
        choices=REAL_BACKENDS,
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
