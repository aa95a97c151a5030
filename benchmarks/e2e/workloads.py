"""The seven named workloads: what each one runs, how big, and why.

Pure data.  ``adapters.py`` turns a :class:`WorkloadDef` into a cluster and
one measured repeat; ``run.py`` decides how many repeats fit the time budget.

Every workload uses c=1, m=1 (six replicas; four shards of six for the
sharded one) and one load-generating process, because the reference host has
two cores.  A size is requests for the closed-loop TCP workloads, seconds of
arrivals for the open-loop one and simulated seconds of client load for the
simulator ones.  ``full`` is one measured (or traced) repeat and ``quick`` the
warm-up repeat that also samples set-up time.

A full repeat takes 1-3 s of wall clock on the reference host, so five to
sixteen fit ``run_seconds`` and ``metrics.py`` has a calmer half of them to
take a median over.  Each TCP repeat still keeps at least 1 000 latency
samples after warm-up, so its p99 has ten samples beyond it.
``sim-lion-crash`` is short on purpose: the requests caught by the fail-over
are 2-3 % of a repeat, so p99 reads the fail-over and not the boundary between
the two populations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Share of every repeat discarded as warm-up before anything is measured.
WARMUP_FRACTION = 0.1


@dataclass(frozen=True)
class WorkloadDef:
    name: str
    backend: str  # "aio" | "proc" | "sim" | "sim-sharded"
    mode: str  # "LION" | "DOG" | "PEACOCK"
    why: str
    full: float
    quick: float
    payload: str = "0/0"
    batch: Optional[Tuple[int, float]] = None  # (max_batch, linger seconds); None = unbatched
    clients: int = 1
    window: int = 1
    open_loop_rate: Optional[float] = None  # Poisson arrivals per second; None = closed loop
    crash_primary: bool = False  # crash the primary a third of the way in
    replica_workers: int = 0  # proc only: replica-group worker processes
    shards: int = 1
    cross_shard_fraction: float = 0.0


_BATCHED = (16, 0.002)

WORKLOADS: Tuple[WorkloadDef, ...] = (
    WorkloadDef(
        name="aio-lion-closed",
        backend="aio",
        mode="LION",
        why="Unbatched Lion over loopback TCP: 17 small messages per request, so "
        "runtime.aio transport and event-loop scheduling dominate, not the handlers.",
        full=1200, quick=100,
        window=16,
    ),
    WorkloadDef(
        name="aio-dog-open",
        backend="aio",
        mode="DOG",
        why="Open-loop Poisson 150 req/s (a quarter to a half of capacity) into batched Dog: "
        "the latency a user sees at a fixed rate, where added queueing delay shows as a loss.",
        full=2.5, quick=0.4,
        batch=_BATCHED,
        window=64,
        open_loop_rate=150.0,
    ),
    WorkloadDef(
        name="aio-peacock-4k",
        backend="aio",
        mode="PEACOCK",
        why="The paper's 4/0 (4 KB requests) in batched Peacock: BFT agreement over large "
        "frames, so core handlers, crypto digests and byte-bound wire do the work.",
        full=1200, quick=96,
        payload="4/0",
        batch=_BATCHED,
        window=32,
    ),
    WorkloadDef(
        name="proc-lion-closed",
        backend="proc",
        mode="LION",
        why="aio-lion-closed split over 2 replica-group processes plus a client process, each "
        "pinned to a core: isolates the IPC and supervisor tax and what the second core buys.",
        full=1200, quick=100,
        window=16,
        replica_workers=2,
    ),
    WorkloadDef(
        name="sim-lion-crash",
        backend="sim",
        mode="LION",
        why="The simulator behind every paper figure, batched, with the primary crashed a "
        "third of the way in: bypasses TCP and asyncio entirely and carries the fault run.",
        full=0.3, quick=0.2,
        batch=_BATCHED,
        clients=6,
        window=32,
        crash_primary=True,
    ),
    WorkloadDef(
        name="sim-sharded-xshard",
        backend="sim-sharded",
        mode="LION",
        why="Four shards on one event heap with 10% cross-shard 2PC: the only cover for "
        "ShardedClient, router and coordinator, and for the shared-heap memory cost.",
        full=0.12, quick=0.03,
        batch=_BATCHED,
        clients=24,
        window=4,
        shards=4,
        cross_shard_fraction=0.1,
    ),
    WorkloadDef(
        name="sim-lion-steady",
        backend="sim",
        mode="LION",
        why="Unbatched fault-free simulator run, about 43 events per request against 8 "
        "batched: a heap or scheduler gain shows here and a batch-path gain does not.",
        full=0.4, quick=0.06,
        clients=6,
        window=4,
    ),
)

BY_NAME: Dict[str, WorkloadDef] = {workload.name: workload for workload in WORKLOADS}
