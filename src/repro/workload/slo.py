"""Latency service-level objectives over binned percentile series.

An SLO is a statement like "p99 latency stays under 50 ms in every 250 ms
window, with at most 10% of windows in violation".  Judging it over a
*binned* series rather than the whole run matters in both directions:

* a surge that blows p99 for two bins and recovers is invisible in the
  whole-run percentile (drowned by the quiet majority of samples), yet it
  is exactly what an SLO exists to catch;
* a deliberately tolerated violation budget (``max_violation_fraction``)
  expresses the standard "99.9% of 5-minute windows" contract shape.

:class:`SlaViolation` adapts the evaluation to the scenario engine's
invariant-checker protocol, so open-loop surge scenarios can assert "the
SLO held with admission control on" and "the checker fires with it off"
with the same machinery the safety checkers use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.workload.metrics import LatencySummary, MetricsCollector

#: Percentiles an SLO may target, mapped to the summary field reporting them.
_SUPPORTED_PERCENTILES = {0.5: "p50", 0.95: "p95", 0.99: "p99", 0.999: "p999"}


@dataclass(frozen=True)
class SloSpec:
    """One latency objective: a percentile bound judged per time bin.

    Attributes:
        percentile: target percentile — one of 0.5, 0.95, 0.99, 0.999
            (the percentiles :class:`~repro.workload.metrics.LatencySummary`
            reports).
        bound: latency bound in seconds the percentile must stay under.
        max_violation_fraction: fraction of (non-empty) bins allowed to
            violate the bound before the SLO as a whole is violated.  0.0
            is the strict "every window" contract.
        bin_width: evaluation window width in seconds.
    """

    percentile: float = 0.99
    bound: float = 0.05
    max_violation_fraction: float = 0.0
    bin_width: float = 0.25

    def __post_init__(self) -> None:
        if self.percentile not in _SUPPORTED_PERCENTILES:
            supported = sorted(_SUPPORTED_PERCENTILES)
            raise ValueError(f"percentile must be one of {supported}: {self.percentile}")
        if self.bound <= 0:
            raise ValueError(f"latency bound must be positive: {self.bound}")
        if not 0.0 <= self.max_violation_fraction < 1.0:
            raise ValueError(
                f"violation budget must be in [0, 1): {self.max_violation_fraction}"
            )
        if self.bin_width <= 0:
            raise ValueError(f"bin width must be positive: {self.bin_width}")

    @property
    def field_name(self) -> str:
        return _SUPPORTED_PERCENTILES[self.percentile]

    def value_of(self, summary: LatencySummary) -> float:
        """The targeted percentile of one bin's summary."""
        return getattr(summary, self.field_name)

    def describe(self) -> str:
        return (
            f"p{self.percentile * 100:g} <= {self.bound * 1000:g}ms "
            f"per {self.bin_width * 1000:g}ms bin"
        )


@dataclass(frozen=True)
class SloEvaluation:
    """Outcome of judging one :class:`SloSpec` over a latency timeline.

    ``over_bound`` lists each violating bin as ``(bin_start, value)``, in
    time order.
    """

    spec: SloSpec
    bins: int
    violating_bins: int
    worst: float
    over_bound: Tuple[Tuple[float, float], ...] = ()

    @property
    def first_violation_at(self) -> Optional[float]:
        return self.over_bound[0][0] if self.over_bound else None

    @property
    def violation_fraction(self) -> float:
        if self.bins == 0:
            return 0.0
        return self.violating_bins / self.bins

    @property
    def holds(self) -> bool:
        """Whether the SLO held (vacuously true with no non-empty bins)."""
        return self.violation_fraction <= self.spec.max_violation_fraction

    def describe(self) -> str:
        status = "held" if self.holds else "VIOLATED"
        return (
            f"SLO {self.spec.describe()}: {status} "
            f"({self.violating_bins}/{self.bins} bins over bound, "
            f"worst {self.worst * 1000:.1f}ms)"
        )


def evaluate_slo(
    spec: SloSpec,
    metrics: MetricsCollector,
    start: float = 0.0,
    end: Optional[float] = None,
) -> SloEvaluation:
    """Judge ``spec`` over ``metrics``' completions in ``[start, end)``.

    Bins with no completions are skipped — they carry no latency evidence
    either way (a bin that is empty *because* everything timed out shows up
    in the neighbouring bins' percentiles and in the shed/drop counters,
    not here).
    """
    values = [
        (bin_start, spec.value_of(summary))
        for bin_start, summary in metrics.latency_timeline(spec.bin_width, start=start, end=end)
        if summary.count > 0
    ]
    over_bound = tuple((bin_start, value) for bin_start, value in values if value > spec.bound)
    return SloEvaluation(
        spec=spec,
        bins=len(values),
        violating_bins=len(over_bound),
        worst=max((value for _, value in values), default=0.0),
        over_bound=over_bound,
    )


class SlaViolation:
    """Invariant checker: continuously judge an :class:`SloSpec` mid-run.

    Follows the :class:`repro.scenarios.invariants.InvariantChecker`
    protocol (attach / check / finalize, each returning violation strings)
    so the scenario engine can sample it on its normal check interval.  It
    judges the window ``[start, end)`` — the same arguments
    :func:`evaluate_slo` takes, so a live checker and a post-run evaluation
    given one window reach one verdict (``end=None`` means up to the end of
    the run).  The periodic check only judges *closed* bins (bins whose end
    is behind the clock) to avoid flagging a half-filled bin whose
    percentile is still moving; finalize judges the whole window.

    Reported violations are cumulative and deduplicated per bin, matching
    the engine's "list of violation strings" convention.
    """

    name = "sla-violation"

    def __init__(self, spec: SloSpec, start: float = 0.0, end: Optional[float] = None) -> None:
        self.spec = spec
        self.start = start
        self.end = end
        self._reported_bins: set = set()
        self._violations: List[str] = []
        self._metrics: Optional[MetricsCollector] = None

    def attach(self, deployment) -> None:
        self._metrics = deployment.metrics

    def _judge(self, deployment, end: Optional[float]) -> List[str]:
        """Judge ``[start, end)`` with :func:`evaluate_slo`; report iff it fails.

        Individual over-bound bins are tracked internally; the checker only
        *reports* once the violating fraction exceeds the spec's budget, so
        a tolerated blip does not fail a scenario.
        """
        metrics = self._metrics if self._metrics is not None else deployment.metrics
        evaluation = evaluate_slo(self.spec, metrics, start=self.start, end=end)
        for bin_start, value in evaluation.over_bound:
            if bin_start not in self._reported_bins:
                self._reported_bins.add(bin_start)
                self._violations.append(
                    f"{self.spec.field_name} {value * 1000:.1f}ms > "
                    f"{self.spec.bound * 1000:g}ms in bin starting at {bin_start:.3f}s"
                )
        return [] if evaluation.holds else list(self._violations)

    def check(self, deployment) -> List[str]:
        # Judge only bins that have fully closed by now.
        now = deployment.runtime.now
        if self.end is not None:
            now = min(now, self.end)
        closed_end = (
            self.start
            + ((now - self.start) // self.spec.bin_width) * self.spec.bin_width
        )
        if closed_end <= self.start:
            return []
        return self._judge(deployment, closed_end)

    def finalize(self, deployment) -> List[str]:
        return self._judge(deployment, self.end)


__all__ = ["SloSpec", "SloEvaluation", "SlaViolation", "evaluate_slo"]
