"""Workloads, closed-loop client pools, and measurement.

The paper's evaluation uses the classic x/y micro-benchmarks (request
payload of x KB, reply payload of y KB) with closed-loop clients, sweeping
the number of clients and measuring end-to-end throughput and latency.
This package provides those pieces:

* :class:`~repro.workload.generator.Workload` — named payload-size recipes
  (0/0, 0/4, 4/0) plus a key-value workload for the examples;
* :class:`~repro.workload.metrics.MetricsCollector` — completion records,
  throughput, latency percentiles, and timeline binning (Figure 4);
* :class:`~repro.workload.client_pool.ClientPool` — spawns and manages N
  closed-loop clients sharing a collector.
"""

from repro.workload.generator import (
    KeyValueWorkload,
    ShardedKeyValueWorkload,
    Workload,
    WorkloadSpec,
)
from repro.workload.metrics import (
    BatchSizeSummary,
    LatencySummary,
    MetricsCollector,
    ShardLoadSummary,
    per_shard_load,
)
from repro.workload.client_pool import ClientPool
from repro.workload.openloop import (
    ArrivalProcess,
    BurstyArrivals,
    ClientPopulation,
    DiurnalArrivals,
    OpenLoopConnection,
    OpenLoopDriver,
    PoissonArrivals,
    workload_operation_source,
)
from repro.workload.slo import SlaViolation, SloEvaluation, SloSpec, evaluate_slo

__all__ = [
    "Workload",
    "WorkloadSpec",
    "KeyValueWorkload",
    "ShardedKeyValueWorkload",
    "MetricsCollector",
    "LatencySummary",
    "BatchSizeSummary",
    "ShardLoadSummary",
    "per_shard_load",
    "ClientPool",
    "ArrivalProcess",
    "PoissonArrivals",
    "BurstyArrivals",
    "DiurnalArrivals",
    "ClientPopulation",
    "OpenLoopConnection",
    "OpenLoopDriver",
    "workload_operation_source",
    "SloSpec",
    "SloEvaluation",
    "SlaViolation",
    "evaluate_slo",
]
