"""Experiment runners.

These functions implement the measurement methodology of Section 6:

* :func:`run_deployment` — start the clients, run for a stretch of
  simulated time, discard a warm-up window, and report throughput and
  latency over the measurement window;
* :func:`sweep_clients` — repeat that for increasing client counts to trace
  one latency-vs-throughput curve (one line of Figures 2 and 3);
* :func:`run_timeline` — run with an optional fault schedule and report
  throughput per time bin (Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.cluster.deployment import Deployment
from repro.workload.metrics import (
    LatencySummary,
    MetricsCollector,
    ShardLoadSummary,
    per_shard_load,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (shard -> cluster)
    from repro.shard.deployment import ShardedDeployment
    from repro.workload.openloop import OpenLoopDriver
    from repro.workload.slo import SloEvaluation, SloSpec


@runtime_checkable
class RunReport(Protocol):
    """The common surface every run-result type exposes.

    Every runner in this repo — single-cluster sim (:class:`RunResult`),
    sharded (:class:`ShardedRunResult`), multi-process
    (:class:`repro.runtime.proc.ProcResult`), and open-loop
    (:class:`OpenLoopRunResult`) — reports through this protocol, so
    analysis and test code can consume any of them without duck-typed
    attribute guessing:

    * ``committed`` — requests the run completed end to end;
    * ``metrics_collector`` — the completion collector, when the backend
      keeps one in-process (``None`` for the multi-process runtime, whose
      collectors die with the workers);
    * ``node_stats()`` — per-node introspection summaries;
    * ``violation_count`` — safety/atomicity/SLO violations observed;
    * ``report_row()`` — a flat dict for tables and JSON artifacts.
    """

    @property
    def committed(self) -> int: ...

    @property
    def metrics_collector(self) -> Optional[MetricsCollector]: ...

    def node_stats(self) -> Dict[str, Any]: ...

    @property
    def violation_count(self) -> int: ...

    def report_row(self) -> Dict[str, Any]: ...


@dataclass(frozen=True)
class RunResult:
    """Outcome of one measured run of one deployment."""

    protocol: str
    clients: int
    duration: float
    completed: int
    throughput: float
    latency: LatencySummary
    client_timeouts: int
    safety_violations: int
    # RunReport extras: populated by the runners, defaulted so positional
    # construction from older call sites keeps working.
    metrics_collector: Optional[MetricsCollector] = None
    node_summaries: Dict[str, Any] = field(default_factory=dict)

    @property
    def throughput_kreqs(self) -> float:
        """Throughput in thousands of requests per second (the paper's unit)."""
        return self.throughput / 1000.0

    @property
    def mean_latency_ms(self) -> float:
        """Mean latency in milliseconds (the paper's unit)."""
        return self.latency.mean * 1000.0

    # -- RunReport ----------------------------------------------------------

    @property
    def committed(self) -> int:
        return self.completed

    @property
    def violation_count(self) -> int:
        return self.safety_violations

    def node_stats(self) -> Dict[str, Any]:
        return dict(self.node_summaries)

    def as_row(self) -> Dict[str, float]:
        """Flat dict used by the benchmark harness to print tables."""
        return {
            "protocol": self.protocol,
            "clients": self.clients,
            "throughput_kreqs_per_s": round(self.throughput_kreqs, 3),
            "mean_latency_ms": round(self.mean_latency_ms, 3),
            "p99_latency_ms": round(self.latency.p99 * 1000.0, 3),
            "completed": self.completed,
            "timeouts": self.client_timeouts,
        }

    def report_row(self) -> Dict[str, Any]:
        return self.as_row()


def _run_measurement_window(deployment, duration: float, warmup: float) -> Tuple[float, float]:
    """Start clients, burn the warm-up, run the measured window, stop clients.

    Shared by the single-cluster and sharded runners so the warm-up
    discipline can never drift between them.  Returns the measurement
    window bounds in simulated time.
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive: {duration}")
    simulator = deployment.simulator
    deployment.start_clients()
    start = simulator.now
    simulator.run(until=start + warmup)
    measure_start = simulator.now
    simulator.run(until=measure_start + duration)
    measure_end = simulator.now
    deployment.stop_clients()
    return measure_start, measure_end


def _assemble_run_result(
    deployment, measure_start: float, measure_end: float, safety_violations: int
) -> RunResult:
    """Build a :class:`RunResult` from a deployment's metrics over one window."""
    metrics = deployment.metrics
    return RunResult(
        protocol=deployment.protocol,
        clients=len(deployment.clients),
        duration=measure_end - measure_start,
        completed=metrics.completed,
        throughput=metrics.throughput(start=measure_start, end=measure_end),
        latency=metrics.latency(start=measure_start, end=measure_end),
        client_timeouts=deployment.client_pool.total_timeouts,
        safety_violations=safety_violations,
        metrics_collector=metrics,
        node_summaries=_node_summaries(deployment),
    )


def _node_summaries(deployment) -> Dict[str, Any]:
    """Per-replica ``state_summary()`` snapshots for :meth:`RunReport.node_stats`."""
    return {
        replica_id: replica.state_summary()
        for replica_id, replica in sorted(deployment.replicas.items())
    }


def run_deployment(
    deployment: Deployment,
    duration: float = 2.0,
    warmup: float = 0.2,
    check_safety: bool = True,
) -> RunResult:
    """Run a deployment under client load and measure the steady state.

    Args:
        deployment: a freshly built deployment (clients not yet started).
        duration: measured window of simulated seconds (after warm-up).
        warmup: simulated seconds of load discarded before measuring.
        check_safety: verify that correct replicas' ledgers agree afterwards.
    """
    measure_start, measure_end = _run_measurement_window(deployment, duration, warmup)
    violations = deployment.safety_violations() if check_safety else []
    if check_safety and violations:
        raise AssertionError(
            f"{deployment.protocol}: safety violated during the run: {violations[:3]}"
        )
    return _assemble_run_result(deployment, measure_start, measure_end, len(violations))


@dataclass(frozen=True)
class ShardedRunResult:
    """Outcome of one measured run of a sharded deployment.

    ``aggregate`` covers every completion (single-shard operations *and*
    cross-shard transactions, each counted once at the client that issued
    it); ``per_shard`` covers the single-shard operations each shard
    served, so shard balance is visible next to the total.
    """

    aggregate: RunResult
    per_shard: Tuple[ShardLoadSummary, ...]
    transactions: Dict[str, int]
    atomicity_violations: int

    def shard_rows(self) -> List[Dict[str, object]]:
        """Flat per-shard rows for :func:`repro.analysis.report.format_sharded_results`."""
        return [summary.as_row() for summary in self.per_shard]

    # -- RunReport (delegating to the aggregate where the data lives) --------

    @property
    def committed(self) -> int:
        return self.aggregate.completed

    @property
    def metrics_collector(self) -> Optional[MetricsCollector]:
        return self.aggregate.metrics_collector

    def node_stats(self) -> Dict[str, Any]:
        return self.aggregate.node_stats()

    @property
    def violation_count(self) -> int:
        return self.aggregate.safety_violations + self.atomicity_violations

    def report_row(self) -> Dict[str, Any]:
        row = dict(self.aggregate.as_row())
        # Flattened (scalar) so every RunReport row fits a plain table.
        for counter in ("started", "committed", "aborted"):
            row[f"transactions_{counter}"] = self.transactions.get(counter, 0)
        row["atomicity_violations"] = self.atomicity_violations
        return row


def run_sharded_deployment(
    deployment: "ShardedDeployment",
    duration: float = 2.0,
    warmup: float = 0.2,
    check_safety: bool = True,
) -> ShardedRunResult:
    """Run a sharded deployment under load; measure aggregate and per-shard.

    Shares :func:`run_deployment`'s measurement window (same warm-up
    discipline, same units) and additionally verifies the sharded safety
    story: every shard's ledger agreement plus cross-shard atomicity.
    """
    measure_start, measure_end = _run_measurement_window(deployment, duration, warmup)
    violations = deployment.safety_violations() if check_safety else []
    atomicity = deployment.atomicity_violations() if check_safety else []
    if check_safety and (violations or atomicity):
        raise AssertionError(
            f"{deployment.protocol}: safety violated during the run: "
            f"{violations[:3] if violations else atomicity[:3]}"
        )
    aggregate = _assemble_run_result(
        deployment, measure_start, measure_end, len(violations) + len(atomicity)
    )
    return ShardedRunResult(
        aggregate=aggregate,
        per_shard=tuple(
            per_shard_load(
                [shard.metrics for shard in deployment.shards],
                start=measure_start,
                end=measure_end,
            )
        ),
        transactions=deployment.transaction_stats(),
        atomicity_violations=len(atomicity),
    )


@dataclass(frozen=True)
class OpenLoopRunResult:
    """Outcome of one open-loop run: served latency plus the overload story.

    Unlike the closed-loop :class:`RunResult`, offered load and served load
    can differ: ``offered`` arrivals were generated, of which ``dropped``
    never left the driver (backlog full), ``shed`` were abandoned after
    repeated signed ``Busy`` rejects, and ``completed`` finished end to
    end.  ``latency`` covers completions only — served latency stays
    honest, and the excess is visible in the counters, exactly the split an
    SLO report needs.
    """

    protocol: str
    duration: float
    offered: int
    completed: int
    dropped: int
    shed: int
    busy_rejects: int
    throughput: float
    latency: LatencySummary
    safety_violations: int
    slo: Optional["SloEvaluation"] = None
    metrics_collector: Optional[MetricsCollector] = None
    node_summaries: Dict[str, Any] = field(default_factory=dict)

    @property
    def offered_rate(self) -> float:
        """Arrivals per second of measured time."""
        if self.duration <= 0:
            return 0.0
        return self.offered / self.duration

    @property
    def slo_holds(self) -> Optional[bool]:
        """Whether the SLO held (``None`` when no SLO was evaluated)."""
        if self.slo is None:
            return None
        return self.slo.holds

    # -- RunReport ----------------------------------------------------------

    @property
    def committed(self) -> int:
        return self.completed

    @property
    def violation_count(self) -> int:
        slo_violated = 1 if self.slo is not None and not self.slo.holds else 0
        return self.safety_violations + slo_violated

    def node_stats(self) -> Dict[str, Any]:
        return dict(self.node_summaries)

    def report_row(self) -> Dict[str, Any]:
        row: Dict[str, Any] = {
            "protocol": self.protocol,
            "offered_rate_reqs_per_s": round(self.offered_rate, 1),
            "throughput_kreqs_per_s": round(self.throughput / 1000.0, 3),
            "p50_latency_ms": round(self.latency.p50 * 1000.0, 3),
            "p99_latency_ms": round(self.latency.p99 * 1000.0, 3),
            "p999_latency_ms": round(self.latency.p999 * 1000.0, 3),
            "completed": self.completed,
            "offered": self.offered,
            "dropped": self.dropped,
            "shed": self.shed,
            "busy_rejects": self.busy_rejects,
        }
        if self.slo is not None:
            row["slo_holds"] = self.slo.holds
            row["slo_violating_bins"] = self.slo.violating_bins
        return row


def run_open_loop(
    deployment: Deployment,
    driver: "OpenLoopDriver",
    duration: float = 2.0,
    warmup: float = 0.2,
    slo: Optional["SloSpec"] = None,
    check_safety: bool = True,
) -> OpenLoopRunResult:
    """Run a deployment under an open-loop driver and measure the window.

    Same warm-up discipline as :func:`run_deployment`, but the load comes
    from ``driver`` (a :class:`~repro.workload.openloop.OpenLoopDriver`
    feeding a modeled population through a bounded connection pool) and the
    result separates offered from served load.  When ``slo`` is given the
    measured window is judged against it bin by bin.
    """
    from repro.workload.slo import evaluate_slo

    if duration <= 0:
        raise ValueError(f"duration must be positive: {duration}")
    simulator = deployment.simulator
    driver.start()
    start = simulator.now
    simulator.run(until=start + warmup)
    measure_start = simulator.now
    offered_before = driver.offered
    completed_before = driver.completed
    dropped_before = driver.dropped
    shed_before = driver.shed
    rejects_before = driver.busy_rejects
    simulator.run(until=measure_start + duration)
    measure_end = simulator.now
    driver.stop()
    violations = deployment.safety_violations() if check_safety else []
    if check_safety and violations:
        raise AssertionError(
            f"{deployment.protocol}: safety violated during the run: {violations[:3]}"
        )
    metrics = deployment.metrics
    evaluation = (
        evaluate_slo(slo, metrics, start=measure_start, end=measure_end)
        if slo is not None
        else None
    )
    return OpenLoopRunResult(
        protocol=deployment.protocol,
        duration=measure_end - measure_start,
        offered=driver.offered - offered_before,
        completed=driver.completed - completed_before,
        dropped=driver.dropped - dropped_before,
        shed=driver.shed - shed_before,
        busy_rejects=driver.busy_rejects - rejects_before,
        throughput=metrics.throughput(start=measure_start, end=measure_end),
        latency=metrics.latency(start=measure_start, end=measure_end),
        safety_violations=len(violations),
        slo=evaluation,
        metrics_collector=metrics,
        node_summaries=_node_summaries(deployment),
    )


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


def run_timeline(
    deployment: Deployment,
    duration: float,
    bin_width: float,
    fault_schedule: Optional[Sequence[Tuple[float, Callable[[Deployment], None]]]] = None,
) -> List[Tuple[float, float]]:
    """Run a deployment and report throughput per time bin (Figure 4).

    Args:
        deployment: a freshly built deployment.
        duration: total simulated time to run.
        bin_width: width of each throughput bin in simulated seconds.
        fault_schedule: optional list of ``(at_time, action)`` pairs; each
            action is called with the deployment when simulated time reaches
            ``at_time`` (e.g. crash the primary).
    """
    simulator = deployment.simulator
    start = simulator.now
    for at_time, action in fault_schedule or []:
        simulator.call_at(start + at_time, lambda action=action: action(deployment))
    deployment.start_clients()
    simulator.run(until=start + duration)
    deployment.stop_clients()
    return deployment.metrics.timeline(bin_width=bin_width, start=start, end=start + duration)
