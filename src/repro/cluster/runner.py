"""Experiment runners.

These functions implement the measurement methodology of Section 6:

* :func:`run_deployment` — start the load (the closed-loop clients or an
  open-loop driver), run the deployment's runtime for a stretch of time,
  discard a warm-up window, and report throughput and latency over the
  measurement window (single cluster or sharded);
* :func:`sweep_clients` — repeat that for increasing client counts to trace
  one latency-vs-throughput curve (one line of Figures 2 and 3).

Every measured run returns the one :class:`RunResult`, and returns it only
if the run upheld safety.  A run with a fault schedule (Figure 4) is a
:class:`~repro.scenarios.engine.Scenario`; its per-bin throughput is
``deployment.metrics.timeline(...)`` afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.deployment import Deployment
from repro.workload.metrics import (
    LatencySummary,
    MetricsCollector,
    ShardLoadSummary,
    per_shard_load,
)
from repro.workload.slo import SloEvaluation, SloSpec, evaluate_slo

if TYPE_CHECKING:  # pragma: no cover
    from repro.workload.openloop import OpenLoopDriver


@dataclass(frozen=True)
class RunResult:
    """Outcome of one measured run of one deployment, whatever its kind.

    The base fields describe every run: ``completed`` counts the whole
    run's completions (warm-up included), while ``throughput`` and
    ``latency`` cover the measured window only.  A result exists only for
    a run whose correct replicas' ledgers agreed (and, sharded, whose
    cross-shard decisions were atomic): the window raises otherwise.  Two
    optional sections ride along, each ``None`` when it does not apply:

    * **sharded** — ``per_shard`` (the single-shard operations each shard
      served over the window, so shard balance is visible next to the
      total) and the 2PC ``transactions`` counters;
    * **open loop** — offered and served load can differ: of the
      ``offered`` arrivals generated during the window, ``dropped`` never
      left the driver (backlog full), ``shed`` were abandoned after
      repeated signed ``Busy`` rejects and ``served`` finished end to end.
      ``latency`` covers completions only, so served latency stays honest
      and the excess is visible in the counters; ``slo`` is the window's
      verdict when one was asked for.
    """

    protocol: str
    clients: int
    duration: float
    completed: int
    throughput: float
    latency: LatencySummary
    client_timeouts: int
    metrics_collector: Optional[MetricsCollector] = None
    node_summaries: Dict[str, Any] = field(default_factory=dict)
    # -- sharded section ----------------------------------------------------
    per_shard: Optional[Tuple[ShardLoadSummary, ...]] = None
    transactions: Optional[Dict[str, int]] = None
    # -- open-loop section (measured-window deltas) --------------------------
    offered: Optional[int] = None
    served: Optional[int] = None
    dropped: Optional[int] = None
    shed: Optional[int] = None
    busy_rejects: Optional[int] = None
    slo: Optional[SloEvaluation] = None

    @property
    def throughput_kreqs(self) -> float:
        """Throughput in thousands of requests per second (the paper's unit)."""
        return self.throughput / 1000.0

    @property
    def mean_latency_ms(self) -> float:
        """Mean latency in milliseconds (the paper's unit)."""
        return self.latency.mean * 1000.0

    @property
    def offered_rate(self) -> float:
        """Open loop: arrivals per second of measured time."""
        if self.duration <= 0 or self.offered is None:
            return 0.0
        return self.offered / self.duration

    @property
    def slo_holds(self) -> Optional[bool]:
        """Whether the SLO held (``None`` when no SLO was evaluated)."""
        return None if self.slo is None else self.slo.holds

    def as_row(self) -> Dict[str, Any]:
        """Flat, scalar-valued dict for tables and JSON artifacts.

        ``violations`` counts a violated SLO (a run that broke safety has
        no result); :func:`repro.analysis.report.format_run_report` flags
        every row where it is not zero.
        """
        row: Dict[str, Any] = {
            "protocol": self.protocol,
            "clients": self.clients,
            "throughput_kreqs_per_s": round(self.throughput_kreqs, 3),
            "mean_latency_ms": round(self.mean_latency_ms, 3),
            "p99_latency_ms": round(self.latency.p99 * 1000.0, 3),
            "completed": self.completed,
            "timeouts": self.client_timeouts,
            "violations": int(self.slo_holds is False),
        }
        if self.transactions is not None:
            for counter in ("started", "committed", "aborted"):
                row[f"transactions_{counter}"] = self.transactions.get(counter, 0)
        if self.offered is not None:
            row["offered_rate_reqs_per_s"] = round(self.offered_rate, 1)
            row["p50_latency_ms"] = round(self.latency.p50 * 1000.0, 3)
            row["p999_latency_ms"] = round(self.latency.p999 * 1000.0, 3)
            for counter in _OPEN_LOOP_COUNTERS:
                row[counter] = getattr(self, counter)
        if self.slo is not None:
            row["slo_holds"] = self.slo.holds
            row["slo_violating_bins"] = self.slo.violating_bins
        return row


#: Open-loop result field -> the driver counter whose window delta it reports.
_OPEN_LOOP_COUNTERS = {
    "offered": "offered",
    "served": "completed",
    "dropped": "dropped",
    "shed": "shed",
    "busy_rejects": "busy_rejects",
}


def run_deployment(
    deployment: Deployment,
    duration: float = 2.0,
    warmup: float = 0.2,
    driver: Optional["OpenLoopDriver"] = None,
    slo: Optional[SloSpec] = None,
) -> RunResult:
    """The one measurement window: start load, warm up, measure, stop, judge.

    Every measured run goes through here, so the warm-up discipline, the
    safety check (every group's ledgers, and atomicity across them) and the
    units can never drift.  The load is the deployment's closed-loop clients
    unless an open-loop ``driver`` is given, whose section of the result
    separates offered from served load; routed clients add the sharded
    section, and ``slo`` judges the measured window bin by bin.  ``duration``
    and ``warmup`` are in the runtime's seconds, on a freshly built
    deployment.  Raises ``AssertionError`` if any group's correct replicas'
    ledgers (or cross-shard decisions) disagree afterwards.
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive: {duration}")
    if warmup < 0:
        raise ValueError(f"warmup must not be negative: {warmup}")
    runtime = deployment.runtime
    load_start, load_stop = (
        (deployment.start_clients, deployment.stop_clients)
        if driver is None
        else (driver.start, driver.stop)
    )
    runtime.run(kickoff=load_start, timeout=warmup)
    measure_start = runtime.now
    before = driver.stats() if driver is not None else {}
    runtime.run(timeout=duration)
    measure_end = runtime.now
    load_stop()

    violations = deployment.safety_violations() or deployment.atomicity_violations()
    if violations:
        raise AssertionError(
            f"{deployment.protocol}: safety violated during the run: {violations[:3]}"
        )
    sections: Dict[str, Any] = {}
    if deployment.router is not None:
        sections.update(
            per_shard=tuple(
                per_shard_load(
                    [group.metrics for group in deployment.shards],
                    start=measure_start,
                    end=measure_end,
                )
            ),
            transactions=deployment.transaction_stats(),
        )
    if driver is not None:
        after = driver.stats()
        sections.update(
            (name, after[counter] - before[counter])
            for name, counter in _OPEN_LOOP_COUNTERS.items()
        )
    metrics = deployment.metrics
    if slo is not None:
        sections["slo"] = evaluate_slo(slo, metrics, start=measure_start, end=measure_end)
    return RunResult(
        protocol=deployment.protocol,
        clients=len(deployment.clients),
        duration=measure_end - measure_start,
        completed=metrics.completed,
        throughput=metrics.throughput(start=measure_start, end=measure_end),
        latency=metrics.latency(start=measure_start, end=measure_end),
        client_timeouts=deployment.client_pool.total_timeouts,
        metrics_collector=metrics,
        node_summaries={
            replica_id: replica.state_summary()
            for replica_id, replica in sorted(deployment.replicas.items())
        },
        **sections,
    )


# benchmarks/e2e/adapters.py imports this name and BENCHMARK.json freezes that
# file, so the sharded spelling stays bound to the same function object.
run_sharded_deployment = run_deployment


def sweep_clients(
    builder: Callable[..., Deployment],
    client_counts: Sequence[int],
    duration: float = 1.0,
    warmup: float = 0.2,
    **builder_kwargs,
) -> List[RunResult]:
    """Trace a latency-throughput curve by sweeping the client count."""
    results = []
    for count in client_counts:
        deployment = builder(num_clients=count, **builder_kwargs)
        results.append(run_deployment(deployment, duration=duration, warmup=warmup))
    return results


def peak_throughput(results: Sequence[RunResult]) -> float:
    """The highest throughput (requests/second) observed along a curve."""
    return max((result.throughput for result in results), default=0.0)
