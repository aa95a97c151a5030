"""Latency SLOs, admission control, and the open-loop surge scenarios."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.admission import AdmissionPolicy
from repro.scenarios import run_scenario
from repro.scenarios.openloop import (
    OPEN_LOOP_SCENARIOS,
    SURGE_ADMISSION_OFF,
    SURGE_ADMISSION_ON,
)
from repro.workload.metrics import MetricsCollector
from repro.workload.slo import SlaViolation, SloSpec, evaluate_slo

pytestmark = pytest.mark.openloop


class TestAdmissionPolicy:
    def test_sheds_at_watermark(self):
        policy = AdmissionPolicy(max_outstanding=10)
        assert not policy.should_shed(queued=4, in_flight=5)
        assert policy.should_shed(queued=5, in_flight=5)
        assert policy.should_shed(queued=100, in_flight=0)

    def test_invalid_watermark_rejected(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(max_outstanding=0)


def _collector_with(latencies_by_bin):
    """A collector with one completion per (bin_start, latency) pair."""
    collector = MetricsCollector()
    timestamp = 0
    for bin_start, latencies in latencies_by_bin:
        for latency in latencies:
            timestamp += 1
            collector.record_completion(
                client_id="c0",
                timestamp=timestamp,
                sent_at=bin_start,
                completed_at=bin_start + latency,
            )
    return collector


class TestSloSpec:
    def test_unsupported_percentile_rejected(self):
        with pytest.raises(ValueError):
            SloSpec(percentile=0.42)

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            SloSpec(bound=0.0)

    def test_field_name_maps_percentile(self):
        assert SloSpec(percentile=0.999, bound=1.0).field_name == "p999"


class TestEvaluateSlo:
    def test_holds_when_under_bound(self):
        collector = _collector_with([(0.0, [0.01] * 10), (0.25, [0.02] * 10)])
        evaluation = evaluate_slo(SloSpec(bound=0.05), collector)
        assert evaluation.holds
        assert evaluation.bins == 2
        assert evaluation.violating_bins == 0

    def test_single_bad_bin_violates_strict_budget(self):
        collector = _collector_with([(0.0, [0.01] * 10), (0.25, [0.2] * 10)])
        evaluation = evaluate_slo(SloSpec(bound=0.05), collector)
        assert not evaluation.holds
        assert evaluation.violating_bins == 1
        assert evaluation.first_violation_at == pytest.approx(0.25)
        assert evaluation.worst == pytest.approx(0.2)

    def test_violation_budget_tolerates_blip(self):
        collector = _collector_with(
            [(0.25 * i, [0.01] * 10) for i in range(9)] + [(0.25 * 9, [0.2] * 10)]
        )
        spec = SloSpec(bound=0.05, max_violation_fraction=0.2)
        assert evaluate_slo(spec, collector).holds

    def test_empty_collector_vacuously_holds(self):
        evaluation = evaluate_slo(SloSpec(bound=0.05), MetricsCollector())
        assert evaluation.holds
        assert evaluation.bins == 0


class _FakeRuntime:
    def __init__(self, now):
        self.now = now


class _FakeDeployment:
    def __init__(self, metrics, now):
        self.metrics = metrics
        self.runtime = _FakeRuntime(now)


class TestSlaViolationChecker:
    def test_fires_only_on_closed_bins(self):
        collector = _collector_with([(0.0, [0.2] * 10)])
        checker = SlaViolation(SloSpec(bound=0.05))
        deployment = _FakeDeployment(collector, now=0.1)
        checker.attach(deployment)
        assert checker.check(deployment) == []  # bin [0, 0.25) still open
        deployment.runtime.now = 0.3
        assert checker.check(deployment)  # now closed, over bound

    def test_finalize_judges_everything(self):
        collector = _collector_with([(0.0, [0.2] * 10)])
        checker = SlaViolation(SloSpec(bound=0.05))
        deployment = _FakeDeployment(collector, now=0.1)
        checker.attach(deployment)
        assert checker.finalize(deployment)

    def test_quiet_run_never_fires(self):
        collector = _collector_with([(0.0, [0.01] * 10), (0.25, [0.01] * 10)])
        checker = SlaViolation(SloSpec(bound=0.05))
        deployment = _FakeDeployment(collector, now=1.0)
        checker.attach(deployment)
        assert checker.check(deployment) == []
        assert checker.finalize(deployment) == []

    def test_an_over_bound_bin_in_the_warm_up_does_not_fire(self):
        """The live checker and the post-run evaluation judge one window.

        The only bad bin lies before ``start`` (the warm-up) and another
        after ``end``; a checker that scanned from t=0 -- as the open-loop
        engine's used to -- would fire where ``evaluate_slo`` holds.
        """
        collector = _collector_with(
            [(0.0, [0.2] * 10), (0.5, [0.01] * 10), (0.75, [0.01] * 10), (1.0, [0.2] * 10)]
        )
        spec = SloSpec(bound=0.05)
        assert evaluate_slo(spec, collector, start=0.5, end=1.0).holds
        checker = SlaViolation(spec, start=0.5, end=1.0)
        deployment = _FakeDeployment(collector, now=0.8)
        checker.attach(deployment)
        assert checker.check(deployment) == []
        deployment.runtime.now = 1.5
        assert checker.check(deployment) == []
        assert checker.finalize(deployment) == []
        # The same data judged from t=0 does violate: the window is what differs.
        assert SlaViolation(spec).finalize(deployment)

    def test_each_sample_builds_the_timeline_once(self):
        collector = _collector_with([(0.0, [0.2] * 10), (0.25, [0.01] * 10)])
        calls = []
        build = collector.latency_timeline
        collector.latency_timeline = lambda *args, **kwargs: (
            calls.append(kwargs) or build(*args, **kwargs)
        )
        checker = SlaViolation(SloSpec(bound=0.05, max_violation_fraction=0.6))
        deployment = _FakeDeployment(collector, now=0.6)
        checker.attach(deployment)
        assert checker.check(deployment) == []  # 1 of 2 bins over: within budget
        assert len(calls) == 1
        assert checker.finalize(deployment) == []
        assert len(calls) == 2

    @given(
        completions=st.lists(
            st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 0.3)), max_size=40
        ),
        spec=st.builds(
            SloSpec,
            percentile=st.sampled_from([0.5, 0.95, 0.99, 0.999]),
            bound=st.floats(0.01, 0.2),
            max_violation_fraction=st.floats(0.0, 0.9),
            bin_width=st.sampled_from([0.1, 0.25, 0.5]),
        ),
        start=st.sampled_from([0.0, 0.3, 1.0]),
        end=st.sampled_from([None, 1.5, 2.5]),
        now=st.floats(0.0, 3.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_the_checker_fires_exactly_when_the_evaluation_fails(
        self, completions, spec, start, end, now
    ):
        collector = MetricsCollector()
        for timestamp, (sent_at, latency) in enumerate(completions, start=1):
            collector.record_completion("c0", timestamp, sent_at, sent_at + latency)
        checker = SlaViolation(spec, start=start, end=end)
        deployment = _FakeDeployment(collector, now=now)
        checker.attach(deployment)
        checker.check(deployment)  # a mid-run sample first: its dedup must not skew the verdict
        evaluation = evaluate_slo(spec, collector, start=start, end=end)
        assert bool(checker.finalize(deployment)) is not evaluation.holds

    def test_an_open_loop_scenario_hands_its_checker_the_measured_window(self):
        (checker,) = SURGE_ADMISSION_ON.default_checkers()
        section = SURGE_ADMISSION_ON.open_loop
        assert checker.spec is section.slo
        assert checker.start == section.warmup
        assert checker.end == section.warmup + SURGE_ADMISSION_ON.duration
        # ... alone, once per SLO bin, with nothing to settle afterwards.
        assert SURGE_ADMISSION_ON.check_interval == section.slo.bin_width
        assert SURGE_ADMISSION_ON.settle == 0.0


class TestSurgeScenarios:
    """The headline gate: 1M modeled users surging past capacity.

    With admission control on, the primary sheds the excess with signed
    Busy rejects and the served-latency SLO holds; with it off, the same
    surge bloats the queue and the SLA checker fires.  Both runs model
    1M+ users through a bounded connection pool.
    """

    def test_admission_on_holds_slo(self):
        assert SURGE_ADMISSION_ON.open_loop.num_users >= 1_000_000
        outcome = run_scenario(SURGE_ADMISSION_ON)
        result = outcome.measured
        assert result.slo_holds, result.slo.describe()
        assert outcome.ok, outcome.failures()
        # The excess was genuinely shed, not silently absorbed.
        assert result.shed > 0
        assert result.busy_rejects > 0
        assert result.served > 0
        assert outcome.mode == "lion" and outcome.completed == result.completed

    def test_admission_off_fires_checker(self):
        assert SURGE_ADMISSION_OFF.open_loop.num_users >= 1_000_000
        outcome = run_scenario(SURGE_ADMISSION_OFF)
        result = outcome.measured
        assert result.slo_holds is False
        # The live checker and the post-run evaluation agree, bin for bin.
        assert len(outcome.invariant_violations["sla-violation"]) == result.slo.violating_bins
        assert outcome.as_row()["verdict"] == "FAIL"
        assert result.busy_rejects == 0  # no admission control, no rejects
        assert result.served > 0

    def test_library_is_consistent(self):
        assert set(OPEN_LOOP_SCENARIOS) == {
            "surge-admission-on",
            "surge-admission-off",
        }
        for name, scenario in OPEN_LOOP_SCENARIOS.items():
            assert scenario.name == name


class TestOpenLoopEndToEnd:
    def test_counters_conserve_and_requests_complete(self):
        from repro.cluster.builders import build_seemore
        from repro.cluster.runner import run_deployment
        from repro.workload.openloop import ClientPopulation, PoissonArrivals

        deployment = build_seemore(num_clients=0, seed=5)
        population = ClientPopulation(
            num_users=10_000, arrivals=PoissonArrivals(rate=300.0, seed=5), seed=5
        )
        driver = deployment.client_pool.spawn_open_loop(
            population, connections=8, max_backlog=100, window=2
        )
        result = run_deployment(deployment, duration=1.0, warmup=0.2, driver=driver)
        assert result.served > 100
        # ``completed`` is the whole run, ``served`` the measured window.
        assert result.completed == deployment.metrics.completed >= result.served
        # Every offered arrival is accounted for: served, dropped at the
        # backlog, shed after Busy rejects, or still in flight / queued.
        accounted = result.served + result.dropped + result.shed
        assert accounted <= result.offered
        in_pipeline = driver.backlog_depth + driver.active_requests
        assert result.offered - accounted <= in_pipeline + 8 * 2
        # Latency is stamped from arrival, so it includes real queueing and
        # is strictly positive.
        assert result.latency.p50 > 0.0

    def test_million_user_live_run_memory_is_o_active(self):
        """The full pipeline (population -> driver -> cluster) at 1.5M users.

        The deployment itself costs a few MB; per-user state at 1.5M users
        would add tens more.  The bound separates the two by a wide margin.
        """
        import tracemalloc

        from repro.cluster.builders import build_seemore
        from repro.cluster.runner import run_deployment
        from repro.workload.openloop import ClientPopulation, PoissonArrivals

        tracemalloc.start()
        try:
            deployment = build_seemore(num_clients=0, seed=6)
            population = ClientPopulation(
                num_users=1_500_000,
                arrivals=PoissonArrivals(rate=400.0, seed=6),
                seed=6,
            )
            driver = deployment.client_pool.spawn_open_loop(
                population, connections=8, max_backlog=100, window=2
            )
            result = run_deployment(deployment, duration=0.5, warmup=0.1, driver=driver)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.served > 0
        assert peak < 24 * 1024 * 1024, f"peak {peak} bytes is not O(active)"
