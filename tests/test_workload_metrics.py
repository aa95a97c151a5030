"""Unit tests for workloads, metrics collection, and the client pool."""

import pytest

from repro.smr.state_machine import KeyValueStore, NullStateMachine
from repro.workload import MetricsCollector, Workload, WorkloadSpec
from repro.workload.generator import KILOBYTE


def kv(**knobs):
    return Workload.build(WorkloadSpec(kind="kv", **knobs))


class TestMicrobenchmarks:
    def test_zero_zero(self):
        workload = Workload.build("0/0")
        assert workload.request_payload_bytes == 0
        assert workload.reply_payload_bytes == 0

    def test_zero_four(self):
        workload = Workload.build("0/4")
        assert workload.request_payload_bytes == 0
        assert workload.reply_payload_bytes == 4 * KILOBYTE

    def test_four_zero(self):
        workload = Workload.build("4/0")
        assert workload.request_payload_bytes == 4 * KILOBYTE
        assert workload.reply_payload_bytes == 0

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            Workload.build("big")
        with pytest.raises(ValueError):
            Workload.build("-1/0")

    def test_operation_factory_attaches_payload(self):
        factory = Workload.build("4/0").operation_factory()
        operation = factory(1)
        assert len(operation.payload) == 4 * KILOBYTE

    def test_state_machine_factory_sets_reply_size(self):
        machine = Workload.build("0/4").state_machine_factory()()
        assert isinstance(machine, NullStateMachine)
        result = machine.apply(factory_operation())
        assert len(result["payload"]) == 4 * KILOBYTE


def factory_operation():
    from repro.smr.state_machine import Operation

    return Operation("noop")


class TestKeyValueWorkload:
    def test_state_machine_is_kv_store(self):
        machine = kv().state_machine_factory()()
        assert isinstance(machine, KeyValueStore)

    def test_mix_of_reads_and_writes(self):
        factory = kv(read_fraction=0.5, seed=1).operation_factory()
        kinds = {factory(i).kind for i in range(100)}
        assert kinds == {"get", "put"}

    def test_pure_write_workload(self):
        factory = kv(read_fraction=0.0, seed=1).operation_factory()
        assert all(factory(i).kind == "put" for i in range(50))

    def test_deterministic_given_seed(self):
        first = [op.kind for op in map(kv(seed=4).operation_factory(), range(20))]
        second = [op.kind for op in map(kv(seed=4).operation_factory(), range(20))]
        assert first == second

    def test_invalid_read_fraction(self):
        with pytest.raises(ValueError):
            kv(read_fraction=1.5)


class TestMetricsCollector:
    def test_throughput_over_window(self):
        metrics = MetricsCollector()
        for i in range(10):
            metrics.record_completion("c0", i, sent_at=i * 0.1, completed_at=i * 0.1 + 0.05)
        # 10 completions spread over ~1 second.
        assert metrics.throughput(start=0.0, end=1.0) == pytest.approx(10.0, rel=0.2)

    def test_throughput_empty(self):
        assert MetricsCollector().throughput() == 0.0

    def test_latency_summary(self):
        metrics = MetricsCollector()
        for i, latency in enumerate([0.01, 0.02, 0.03, 0.04]):
            metrics.record_completion("c0", i, sent_at=0.0, completed_at=latency)
        summary = metrics.latency()
        assert summary.count == 4
        assert summary.mean == pytest.approx(0.025)
        assert summary.maximum == pytest.approx(0.04)
        # Interpolated percentile: the median of an even-sized sample falls
        # between the two middle order statistics.
        assert summary.p50 == pytest.approx(0.025)

    def test_latency_empty(self):
        summary = MetricsCollector().latency()
        assert summary.count == 0
        assert summary.mean == 0.0

    def test_invalid_completion_rejected(self):
        with pytest.raises(ValueError):
            MetricsCollector().record_completion("c0", 1, sent_at=1.0, completed_at=0.5)

    def test_windowed_latency_excludes_outside(self):
        metrics = MetricsCollector()
        metrics.record_completion("c0", 1, sent_at=0.0, completed_at=0.5)
        metrics.record_completion("c0", 2, sent_at=1.0, completed_at=5.0)
        summary = metrics.latency(start=0.0, end=1.0)
        assert summary.count == 1

    def test_timeline_bins(self):
        metrics = MetricsCollector()
        for i in range(10):
            metrics.record_completion("c0", i, sent_at=i * 0.1, completed_at=i * 0.1)
        bins = metrics.timeline(bin_width=0.5, start=0.0, end=1.0)
        assert len(bins) == 2
        total = sum(rate * 0.5 for _, rate in bins)
        assert total == pytest.approx(10.0, rel=0.01)

    def test_timeline_invalid_bin_width(self):
        with pytest.raises(ValueError):
            MetricsCollector().timeline(bin_width=0.0)

    def test_completions_by_client(self):
        metrics = MetricsCollector()
        metrics.record_completion("c0", 1, 0.0, 0.1)
        metrics.record_completion("c1", 1, 0.0, 0.1)
        metrics.record_completion("c0", 2, 0.1, 0.2)
        assert metrics.completions_by_client() == {"c0": 2, "c1": 1}


class TestPercentileEdges:
    """Pin the interpolated percentile estimator at its edges."""

    def test_empty_is_zero(self):
        from repro.workload.metrics import _percentile

        assert _percentile([], 0.5) == 0.0

    def test_single_sample_is_that_sample(self):
        from repro.workload.metrics import _percentile

        for fraction in (0.0, 0.5, 0.99, 1.0):
            assert _percentile([0.7], fraction) == pytest.approx(0.7)

    def test_two_samples_interpolate(self):
        from repro.workload.metrics import _percentile

        assert _percentile([1.0, 2.0], 0.5) == pytest.approx(1.5)

    def test_p999_near_maximum(self):
        from repro.workload.metrics import LatencySummary, _percentile

        values = [float(i) for i in range(1, 1001)]
        assert _percentile(values, 1.0) == pytest.approx(1000.0)
        assert 999.0 <= _percentile(values, 0.999) <= 1000.0
        summary = LatencySummary.of(values)
        assert 999.0 <= summary.p999 <= 1000.0
        assert summary.p999 <= summary.maximum

    def test_out_of_range_fraction_rejected(self):
        from repro.workload.metrics import _percentile

        with pytest.raises(ValueError):
            _percentile([1.0], 1.5)
        with pytest.raises(ValueError):
            _percentile([1.0], -0.1)

    def test_batch_summary_p50_interpolates(self):
        from repro.workload.metrics import BatchSizeSummary

        summary = BatchSizeSummary.of([1, 2, 3, 10])
        assert summary.p50 == pytest.approx(2.5)


class TestLatencyTimeline:
    def test_latency_timeline_bins_percentiles(self):
        metrics = MetricsCollector()
        # Bin [0, 0.5): fast completions; bin [0.5, 1.0): slow ones.
        for i in range(10):
            metrics.record_completion("c0", i, sent_at=0.1, completed_at=0.11)
        for i in range(10, 20):
            metrics.record_completion("c0", i, sent_at=0.6, completed_at=0.9)
        timeline = metrics.latency_timeline(bin_width=0.5, start=0.0, end=1.0)
        assert len(timeline) == 2
        (t0, fast), (t1, slow) = timeline
        assert (t0, t1) == (0.0, 0.5)
        assert fast.p50 == pytest.approx(0.01)
        assert slow.p50 == pytest.approx(0.3)

    def test_latency_timeline_invalid_bin_width(self):
        with pytest.raises(ValueError):
            MetricsCollector().latency_timeline(bin_width=0.0)
