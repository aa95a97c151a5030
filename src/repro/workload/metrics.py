"""Measurement: completions, throughput, latency, and timelines.

The collector receives one record per completed client request and can then
answer the questions the paper's figures ask:

* *throughput* — completed requests per second over a window (x axis of
  Figures 2 and 3);
* *latency* — mean / percentile end-to-end latency (y axis);
* *timeline* — completed requests per time bin, used for the view-change
  experiment of Figure 4;
* *batch sizes* — how full the primary's proposed batches were, reported by
  the batching benchmark alongside per-request latency so the batching
  knobs (``max_batch``, ``linger``) can be tuned against the throughput
  they buy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True, slots=True)
class CompletionRecord:
    """One completed request as reported by a client."""

    client_id: str
    timestamp: int
    sent_at: float
    completed_at: float

    @property
    def latency(self) -> float:
        return self.completed_at - self.sent_at


@dataclass(frozen=True)
class BatchSizeSummary:
    """Distribution of proposed batch sizes across a run."""

    batches: int
    requests: int
    mean: float
    p50: float
    maximum: int
    histogram: Dict[int, int] = field(default_factory=dict)

    @classmethod
    def empty(cls) -> "BatchSizeSummary":
        return cls(batches=0, requests=0, mean=0.0, p50=0.0, maximum=0, histogram={})

    @classmethod
    def of(cls, sizes: List[int]) -> "BatchSizeSummary":
        if not sizes:
            return cls.empty()
        ordered = sorted(sizes)
        histogram: Dict[int, int] = {}
        for size in sizes:
            histogram[size] = histogram.get(size, 0) + 1
        return cls(
            batches=len(sizes),
            requests=sum(sizes),
            mean=sum(sizes) / len(sizes),
            p50=_percentile(ordered, 0.50),
            maximum=ordered[-1],
            histogram=histogram,
        )


@dataclass(frozen=True)
class LatencySummary:
    """Aggregate latency statistics over a set of completions."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    maximum: float
    p999: float = 0.0

    @classmethod
    def empty(cls) -> "LatencySummary":
        return cls(count=0, mean=0.0, p50=0.0, p95=0.0, p99=0.0, maximum=0.0, p999=0.0)

    @classmethod
    def of(cls, values: List[float]) -> "LatencySummary":
        """Summarise a bare list of latency samples (need not be sorted)."""
        if not values:
            return cls.empty()
        ordered = sorted(values)
        return cls(
            count=len(ordered),
            mean=sum(ordered) / len(ordered),
            p50=_percentile(ordered, 0.50),
            p95=_percentile(ordered, 0.95),
            p99=_percentile(ordered, 0.99),
            maximum=ordered[-1],
            p999=_percentile(ordered, 0.999),
        )


def _percentile(sorted_values: List[float], fraction: float) -> float:
    """Linearly interpolated percentile over an ascending sample list.

    The shared helper behind every percentile this module reports (latency
    p50/p95/p99/p999, batch-size p50): position ``fraction * (n - 1)`` is
    interpolated between its two surrounding order statistics, so p50 of
    ``[1, 2]`` is 1.5 rather than either sample, and p999 keeps resolving
    between the two largest samples instead of saturating at the maximum
    as the old nearest-rank rule did.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"percentile fraction must be in [0, 1]: {fraction}")
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = fraction * (len(sorted_values) - 1)
    lower = math.floor(position)
    upper = min(lower + 1, len(sorted_values) - 1)
    weight = position - lower
    return sorted_values[lower] * (1.0 - weight) + sorted_values[upper] * weight


@dataclass(frozen=True)
class ShardLoadSummary:
    """Throughput/latency of one shard over a measurement window.

    Sharded deployments keep one collector per shard (fed with the
    single-shard completions the shard served) next to the aggregate
    collector, so reports can show both the per-shard balance and the
    whole-deployment numbers.
    """

    shard: int
    completed: int
    throughput: float
    latency: "LatencySummary"

    def as_row(self) -> Dict[str, object]:
        """Flat dict in the benchmark tables' units (kreq/s, ms)."""
        return {
            "shard": self.shard,
            "completed": self.completed,
            "throughput_kreqs_per_s": round(self.throughput / 1000.0, 3),
            "mean_latency_ms": round(self.latency.mean * 1000.0, 3),
            "p99_latency_ms": round(self.latency.p99 * 1000.0, 3),
        }


def per_shard_load(
    collectors: List["MetricsCollector"],
    start: Optional[float] = None,
    end: Optional[float] = None,
) -> List[ShardLoadSummary]:
    """Summarise each shard's collector over one shared window."""
    return [
        ShardLoadSummary(
            shard=index,
            completed=len(collector._in_window(start, end)),
            throughput=collector.throughput(start=start, end=end),
            latency=collector.latency(start=start, end=end),
        )
        for index, collector in enumerate(collectors)
    ]


class MetricsCollector:
    """Accumulates completion records from every client in a deployment."""

    def __init__(self) -> None:
        self._records: List[CompletionRecord] = []
        self._per_client_counts: Dict[str, int] = {}
        self._batch_sizes: List[int] = []

    # -- recording (duck-typed interface used by repro.smr.client.Client) -----

    def record_completion(
        self, client_id: str, timestamp: int, sent_at: float, completed_at: float
    ) -> None:
        if completed_at < sent_at:
            raise ValueError("completion cannot precede the send time")
        record = CompletionRecord(
            client_id=client_id, timestamp=timestamp, sent_at=sent_at, completed_at=completed_at
        )
        self._records.append(record)
        self._per_client_counts[client_id] = self._per_client_counts.get(client_id, 0) + 1

    def record_batch(self, size: int) -> None:
        """Record the size of one batch a primary proposed."""
        if size < 1:
            raise ValueError(f"batch sizes are positive: {size}")
        self._batch_sizes.append(size)

    def record_batches(self, sizes: List[int]) -> None:
        for size in sizes:
            self.record_batch(size)

    # -- batch distribution ----------------------------------------------------

    @property
    def batch_sizes(self) -> List[int]:
        return list(self._batch_sizes)

    def batch_summary(self) -> BatchSizeSummary:
        """Distribution of recorded batch sizes (empty when unbatched)."""
        return BatchSizeSummary.of(self._batch_sizes)

    # -- basic counters -------------------------------------------------------

    @property
    def completed(self) -> int:
        return len(self._records)

    @property
    def records(self) -> List[CompletionRecord]:
        return list(self._records)

    def records_since(self, offset: int) -> List[CompletionRecord]:
        """Records appended at or after ``offset`` (a previous ``completed``).

        Incremental accessor for periodic consumers (the adaptive
        controller's latency-drift probe polls tens of times per simulated
        second); unlike :attr:`records` it does not copy the whole history.
        """
        return self._records[offset:]

    def completions_by_client(self) -> Dict[str, int]:
        return dict(self._per_client_counts)

    # -- windows ----------------------------------------------------------------

    def _in_window(self, start: Optional[float], end: Optional[float]) -> List[CompletionRecord]:
        records = self._records
        if start is not None:
            records = [r for r in records if r.completed_at >= start]
        if end is not None:
            records = [r for r in records if r.completed_at < end]
        return records

    def throughput(self, start: Optional[float] = None, end: Optional[float] = None) -> float:
        """Completed requests per second of simulated time in the window."""
        records = self._in_window(start, end)
        if not records:
            return 0.0
        window_start = start if start is not None else min(r.sent_at for r in records)
        window_end = end if end is not None else max(r.completed_at for r in records)
        duration = window_end - window_start
        if duration <= 0:
            return 0.0
        return len(records) / duration

    def latency(self, start: Optional[float] = None, end: Optional[float] = None) -> LatencySummary:
        """Latency statistics for completions inside the window."""
        records = self._in_window(start, end)
        return LatencySummary.of([r.latency for r in records])

    def timeline(
        self, bin_width: float, start: float = 0.0, end: Optional[float] = None
    ) -> List[Tuple[float, float]]:
        """Throughput per time bin: list of ``(bin_start, requests_per_second)``.

        Used by the view-change experiment (Figure 4) to show the stall and
        recovery around a primary failure.
        """
        if bin_width <= 0:
            raise ValueError(f"bin width must be positive: {bin_width}")
        if end is None:
            end = max((r.completed_at for r in self._records), default=start)
        bins: List[Tuple[float, float]] = []
        bin_start = start
        while bin_start < end:
            bin_end = bin_start + bin_width
            count = len(self._in_window(bin_start, bin_end))
            bins.append((bin_start, count / bin_width))
            bin_start = bin_end
        return bins

    def latency_timeline(
        self, bin_width: float, start: float = 0.0, end: Optional[float] = None
    ) -> List[Tuple[float, LatencySummary]]:
        """Percentile series per time bin: ``(bin_start, LatencySummary)``.

        The open-loop SLO machinery reads this to judge tail latency over
        time instead of over the whole run: a surge that blows p99 for two
        bins and recovers looks very different from one that never recovers,
        and only a binned series can tell them apart.  Completions land in
        the bin of their ``completed_at``.
        """
        if bin_width <= 0:
            raise ValueError(f"bin width must be positive: {bin_width}")
        if end is None:
            end = max((r.completed_at for r in self._records), default=start)
        bins: List[Tuple[float, LatencySummary]] = []
        bin_start = start
        while bin_start < end:
            bin_end = bin_start + bin_width
            records = self._in_window(bin_start, bin_end)
            bins.append((bin_start, LatencySummary.of([r.latency for r in records])))
            bin_start = bin_end
        return bins
