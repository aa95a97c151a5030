"""The adaptive controller: estimator units, policy edges, and the race cases.

The scenario-level gates (full escalate→de-escalate cycle, no flapping,
per-shard divergence) live in ``tests/test_adaptive_scenarios.py``; this
file covers the machinery underneath and the controller edge cases the
scenarios cannot pin precisely:

* evidence arriving while every possible initiator is mid-view-change;
* conflicting per-replica estimates (one noisy observer vs. a hard proof);
* cooldown expiry racing a fresh attack.
"""

import math

import pytest

from repro.adaptive import (
    AdaptivePolicy,
    EvidenceKind,
    EvidenceLog,
    EvidenceRecord,
    FaultEnvironmentEstimator,
)
from repro.analysis.report import format_adaptive_decisions
from repro.cluster.builders import build_seemore
from repro.core.modes import Mode
from repro.faults.byzantine import make_byzantine, restore_honest

pytestmark = pytest.mark.adaptive


def record(at, kind, suspect=None, observer="observer", detail=""):
    return EvidenceRecord(at=at, kind=kind, observer=observer, suspect=suspect, detail=detail)


PRIVATE = ("private-0", "private-1")
PUBLIC = ("public-0", "public-1", "public-2", "public-3")


class TestEvidenceLog:
    def test_records_stamp_simulated_time_and_read_incrementally(self):
        class FakeSimulator:
            now = 1.5

        log = EvidenceLog("private-0", FakeSimulator())
        log.record(EvidenceKind.TIMEOUT, suspect="private-1", detail="view=3")
        FakeSimulator.now = 2.5
        log.record(EvidenceKind.EQUIVOCATION, suspect="public-0")

        assert len(log) == 2
        assert log.records[0].at == 1.5 and log.records[0].observer == "private-0"
        fresh = log.records_since(1)
        assert len(fresh) == 1 and fresh[0].kind is EvidenceKind.EQUIVOCATION

    def test_compaction_bounds_retention_but_keeps_offsets_logical(self):
        class FakeSimulator:
            now = 0.0

        log = EvidenceLog("private-0", FakeSimulator())
        total = EvidenceLog.MAX_BUFFERED + 10
        for index in range(total):
            FakeSimulator.now = float(index)
            log.record(EvidenceKind.TIMEOUT, suspect="private-1")
        # Logical length counts every append; the retained tail is bounded.
        assert len(log) == total
        assert len(log.records) <= EvidenceLog.MAX_BUFFERED
        # A reader that kept up sees exactly the new records...
        offset = len(log)
        log.record(EvidenceKind.EQUIVOCATION, suspect="public-0")
        fresh = log.records_since(offset)
        assert [record.kind for record in fresh] == [EvidenceKind.EQUIVOCATION]
        # ...and one that fell behind gets the retained tail, never a crash.
        stale = log.records_since(0)
        assert stale[-1].kind is EvidenceKind.EQUIVOCATION
        assert len(stale) == len(log.records)


class TestEstimator:
    def test_classifies_byzantine_vs_churn_and_names_suspects(self):
        estimator = FaultEnvironmentEstimator(PRIVATE, PUBLIC, window=1.0)
        estimator.observe(
            [
                record(0.1, EvidenceKind.CONFLICTING_VOTE, suspect="public-1"),
                record(0.2, EvidenceKind.EQUIVOCATION, suspect="public-2"),
                record(0.3, EvidenceKind.TIMEOUT, suspect="private-0"),
                record(0.4, EvidenceKind.VIEW_CHANGE, suspect="private-0",
                       detail="suspected-primary"),
            ]
        )
        estimate = estimator.estimate(0.5)
        assert estimate.byzantine_suspects == {"public-1", "public-2"}
        assert estimate.crash_suspects == {"private-0"}
        assert estimate.byzantine_events == 2 and estimate.churn_events == 2
        assert estimate.active_byzantine == 2 and estimate.active_crash == 1

    def test_estimate_consults_the_sizing_equations(self):
        estimator = FaultEnvironmentEstimator(PRIVATE, PUBLIC, window=1.0)
        estimator.observe(
            [
                record(0.1, EvidenceKind.EQUIVOCATION, suspect="public-1"),
                record(0.2, EvidenceKind.TIMEOUT, suspect="private-0"),
            ]
        )
        estimate = estimator.estimate(0.3)
        # m̂=1, ĉ=1 -> N* = 3+2+1 = 6, quorum 2m̂+ĉ+1 = 4 (planner equations).
        assert estimate.required_network_size() == 6
        assert estimate.required_quorum() == 4
        assert estimate.within_tolerance(1, 1)
        assert not estimate.within_tolerance(0, 1)

    def test_window_prunes_counts_but_quiet_tracking_survives(self):
        estimator = FaultEnvironmentEstimator(PRIVATE, PUBLIC, window=0.2)
        estimator.observe([record(0.1, EvidenceKind.EQUIVOCATION, suspect="public-0")])
        aged = estimator.estimate(1.0)
        assert aged.byzantine_events == 0
        assert aged.last_byzantine_at == 0.1
        assert aged.quiet_for(1.0) == pytest.approx(0.9)
        fresh = FaultEnvironmentEstimator(PRIVATE, PUBLIC, window=0.2).estimate(1.0)
        assert fresh.quiet_for(1.0) == math.inf

    def test_discards_foreign_suspects_and_private_byzantine_claims(self):
        estimator = FaultEnvironmentEstimator(PRIVATE, PUBLIC, window=1.0)
        admitted = estimator.observe(
            [
                # Another shard's replica: not this estimator's problem.
                record(0.1, EvidenceKind.EQUIVOCATION, suspect="s1-public-0"),
                # The hybrid model admits no Byzantine faults in the
                # private cloud; an apparent proof there is noise.
                record(0.2, EvidenceKind.FORGED_REPLY, suspect="private-0"),
                record(0.3, EvidenceKind.CONFLICTING_VOTE, suspect="public-0"),
            ]
        )
        assert admitted == 1
        estimate = estimator.estimate(0.4)
        assert estimate.byzantine_suspects == {"public-0"}

    def test_unattributed_byzantine_evidence_counts_events_not_suspects(self):
        estimator = FaultEnvironmentEstimator(PRIVATE, PUBLIC, window=1.0)
        estimator.observe(
            [
                record(0.1, EvidenceKind.CONFLICTING_VOTE, suspect=None),
                record(0.2, EvidenceKind.CONFLICTING_VOTE, suspect=None),
            ]
        )
        estimate = estimator.estimate(0.3)
        assert estimate.byzantine_events == 2
        assert estimate.last_byzantine_at == 0.2
        # m-hat stays a floor of *provably* implicated nodes.
        assert estimate.byzantine_suspects == frozenset()
        assert estimate.within_tolerance(1, 1)

    def test_mode_switch_view_changes_never_count_as_churn(self):
        estimator = FaultEnvironmentEstimator(PRIVATE, PUBLIC, window=1.0)
        estimator.observe(
            [
                record(0.1, EvidenceKind.VIEW_CHANGE, detail="mode-switch"),
                record(0.2, EvidenceKind.VIEW_CHANGE, suspect="private-0",
                       detail="suspected-primary"),
            ]
        )
        estimate = estimator.estimate(0.3)
        assert estimate.churn_events == 1


class TestPolicyValidation:
    def test_rejects_nonsense_knobs(self):
        with pytest.raises(ValueError):
            AdaptivePolicy(poll_interval=0)
        with pytest.raises(ValueError):
            AdaptivePolicy(hysteresis_polls=0)
        with pytest.raises(ValueError):
            AdaptivePolicy(cooldown=-0.1)


def build_adaptive(policy=None, **kwargs):
    kwargs.setdefault("mode", Mode.LION)
    kwargs.setdefault("num_clients", 2)
    kwargs.setdefault("seed", 11)
    deployment = build_seemore(adaptive=policy or AdaptivePolicy(), **kwargs)
    return deployment, deployment.group().adaptive


class TestControllerEdgeCases:
    def test_evidence_during_in_flight_view_change_defers_the_switch(self):
        """Byzantine proof lands while every trusted replica is mid-view-change:
        the controller must wait for the view to install, then act."""
        deployment, controller = build_adaptive()
        for replica_id in ("private-0", "private-1"):
            deployment.replicas[replica_id].in_view_change = True
        witness = deployment.replicas["private-0"]
        for _ in range(3):
            witness.evidence.record(EvidenceKind.EQUIVOCATION, suspect="public-0")

        for _ in range(4):
            controller.poll()
        assert controller.decisions == []
        assert controller.deferred_polls > 0

        # The view change completes; the very next poll may act on the
        # evidence that arrived during it (still inside the window).
        for replica_id in ("private-0", "private-1"):
            deployment.replicas[replica_id].in_view_change = False
        decision = controller.poll()
        assert decision is not None and decision.to_mode is Mode.PEACOCK

    def test_conflicting_per_replica_estimates_need_threshold_or_proof(self):
        """One replica reporting sub-threshold churn moves nothing; a hard
        Byzantine proof from a single observer is enough on its own."""
        deployment, controller = build_adaptive()
        noisy = deployment.replicas["public-2"]
        noisy.evidence.record(EvidenceKind.TIMEOUT, suspect="private-0")
        noisy.evidence.record(EvidenceKind.TIMEOUT, suspect="private-0")
        for _ in range(4):
            assert controller.poll() is None
        assert controller.decisions == []

        # A cryptographic proof needs no corroborating observers.
        witness = deployment.replicas["public-3"]
        witness.evidence.record(EvidenceKind.EQUIVOCATION, suspect="public-0")
        witness.evidence.record(EvidenceKind.EQUIVOCATION, suspect="public-0")
        decisions = [controller.poll() for _ in range(2)]
        assert any(d is not None and d.to_mode is Mode.PEACOCK for d in decisions)

    def test_cooldown_expiry_racing_a_new_attack(self):
        """De-escalation and a fresh attack race: the controller must hold
        through the cooldown, then re-escalate, without extra transitions."""
        policy = AdaptivePolicy(quiet_period=0.15, cooldown=0.2)
        deployment, controller = build_adaptive(policy=policy, num_clients=3)
        deployment.start_clients()
        deployment.run(0.1)
        make_byzantine(deployment.group(), "public-3", "equivocate")
        deployment.run(0.15)
        assert controller.current_mode() is Mode.PEACOCK
        restore_honest(deployment.group(), "public-3")
        # Quiet period elapses -> de-escalation -> the attacker returns the
        # moment the group is back in Lion.
        deployment.run(0.3)
        assert controller.current_mode() is Mode.LION
        deescalated_at = controller.decisions[-1].at
        make_byzantine(deployment.group(), "public-3", "equivocate")
        deployment.run(0.5)
        deployment.stop_clients()
        assert controller.current_mode() is Mode.PEACOCK

        reescalation = next(
            d for d in controller.decisions if d.at > deescalated_at and d.to_mode is Mode.PEACOCK
        )
        # The re-escalation respected the cooldown even though the evidence
        # threshold was crossed almost immediately.
        assert reescalation.at - deescalated_at >= policy.cooldown
        transitions = [(a.name, b.name) for _, a, b in controller.mode_transitions]
        assert transitions == [
            ("LION", "PEACOCK"), ("PEACOCK", "LION"), ("LION", "PEACOCK"),
        ]
        assert deployment.safety_violations() == []

    def test_controller_switch_rides_the_consensus_path(self):
        """A controller switch is a real mode switch: views advance and every
        correct replica lands in the new mode together."""
        deployment, controller = build_adaptive(num_clients=3)
        deployment.start_clients()
        deployment.run(0.1)
        views_before = {r.node_id: r.view for r in deployment.correct_replicas()}
        make_byzantine(deployment.group(), "public-3", "equivocate")
        deployment.run(0.2)
        deployment.stop_clients()
        assert all(
            replica.mode is Mode.PEACOCK for replica in deployment.correct_replicas()
        )
        assert all(
            replica.view > views_before[replica.node_id]
            for replica in deployment.correct_replicas()
        )
        assert deployment.safety_violations() == []


class TestEvidenceEmission:
    def test_conflicting_lion_votes_are_flagged_by_the_primary(self):
        deployment, controller = build_adaptive(num_clients=2)
        deployment.start_clients()
        make_byzantine(deployment.group(), "public-3", "equivocate")
        deployment.run(0.08)
        deployment.stop_clients()
        primary = deployment.replicas["private-0"]
        kinds = {r.kind for r in primary.evidence.records}
        suspects = {r.suspect for r in primary.evidence.records}
        assert EvidenceKind.CONFLICTING_VOTE in kinds
        assert "public-3" in suspects

    def test_corrupt_signatures_are_flagged_as_invalid(self):
        deployment, controller = build_adaptive(num_clients=2, mode=Mode.DOG)
        deployment.start_clients()
        make_byzantine(deployment.group(), "public-3", "corrupt")
        deployment.run(0.15)
        deployment.stop_clients()
        flagged = [
            record
            for replica in deployment.correct_replicas()
            for record in replica.evidence.records
            if record.kind is EvidenceKind.INVALID_SIGNATURE
        ]
        assert any(record.suspect == "public-3" for record in flagged)

    def test_peacock_equivocating_primary_never_implicates_honest_proxies(self):
        """When an *untrusted primary* equivocates, honest proxies split over
        the assignment and contradict each other; the Byzantine accounting
        must keep escalation pressure without naming honest nodes (only the
        primary, via hard equivocation proofs, may be a suspect)."""
        deployment, controller = build_adaptive(num_clients=3, mode=Mode.PEACOCK)
        config = deployment.group().config
        primary = config.primary_of_view(0, Mode.PEACOCK)
        deployment.start_clients()
        make_byzantine(deployment.group(), primary, "equivocate")
        deployment.run(0.25)
        deployment.stop_clients()
        deployment.run(0.1)

        estimate = controller.estimator.estimate(deployment.simulator.now)
        honest_public = set(config.public_replicas) - {primary}
        assert not (set(estimate.byzantine_suspects) & honest_public), (
            estimate.byzantine_suspects
        )
        # The attack is still visible to the controller as Byzantine events.
        assert controller.estimator.counts_by_kind().get(
            EvidenceKind.CONFLICTING_VOTE, 0
        ) + controller.estimator.counts_by_kind().get(EvidenceKind.EQUIVOCATION, 0) > 0
        assert deployment.safety_violations() == []

    def test_restore_honest_stops_the_evidence_stream(self):
        deployment, controller = build_adaptive(num_clients=2)
        deployment.start_clients()
        make_byzantine(deployment.group(), "public-3", "equivocate")
        deployment.run(0.1)
        restore_honest(deployment.group(), "public-3")
        primary = deployment.replicas["private-0"]
        before = len(primary.evidence)
        deployment.run(0.2)
        deployment.stop_clients()
        fresh = [
            record
            for record in primary.evidence.records_since(before)
            if record.kind is EvidenceKind.CONFLICTING_VOTE
        ]
        assert fresh == []


class TestRecommendationDampers:
    def test_stepping_down_off_peacock_needs_byzantine_quiet(self):
        """Churn above threshold while Byzantine evidence is fresher than the
        quiet period must hold Peacock, not step down to Dog -- otherwise an
        attacker pausing past the evidence window rides concurrent churn
        into a Peacock<->Dog treadmill."""
        from repro.adaptive import FaultEnvironmentEstimate

        _, controller = build_adaptive()
        quiet = controller.policy.quiet_period
        churny = dict(churn_events=controller.policy.churn_escalation_events)
        fresh = FaultEnvironmentEstimate(
            at=1.0, window=0.2, last_byzantine_at=1.0 - quiet / 2, **churny
        )
        assert controller.recommend(fresh, Mode.PEACOCK, 1.0) is Mode.PEACOCK
        stale = FaultEnvironmentEstimate(
            at=1.0, window=0.2, last_byzantine_at=1.0 - 2 * quiet, **churny
        )
        assert controller.recommend(stale, Mode.PEACOCK, 1.0) is Mode.DOG
        # Escalating *into* Dog from Lion on churn needs no such wait.
        assert controller.recommend(fresh, Mode.LION, 1.0) is Mode.DOG


class TestAcceptanceCycle:
    """The PR's acceptance gate: a scenario run demonstrates the full
    escalate→de-escalate cycle (Lion → Peacock on injected equivocation,
    back to Lion after the quiet period) with zero safety-checker
    violations, and the oscillating-attacker scenario shows no flapping."""

    def test_full_escalate_deescalate_cycle_with_zero_violations(self):
        from repro.scenarios import run_scenario
        from repro.scenarios.adaptive import DEESCALATE_AFTER_QUIET_PERIOD

        result = run_scenario(DEESCALATE_AFTER_QUIET_PERIOD, Mode.LION)
        result.assert_ok()
        assert result.invariant_violations == {}
        assert result.final_modes == ("LION",)

    def test_oscillating_attacker_must_not_flap(self):
        from repro.scenarios import run_scenario
        from repro.scenarios.adaptive import OSCILLATING_ATTACKER_MUST_NOT_FLAP

        result = run_scenario(OSCILLATING_ATTACKER_MUST_NOT_FLAP, Mode.LION)
        result.assert_ok()
        assert result.invariant_violations == {}


class TestControllerLifecycle:
    def test_stop_then_start_resumes_polling_without_double_loops(self):
        deployment, controller = build_adaptive(num_clients=2)
        deployment.start_clients()
        deployment.run(0.1)
        assert controller.polls > 0
        controller.stop()
        deployment.run(0.1)
        frozen = controller.polls
        deployment.run(0.1)
        assert controller.polls == frozen
        controller.start()
        deployment.run(0.1)
        resumed = controller.polls
        assert resumed > frozen
        # Exactly one loop: poll count advances at ~1 per poll_interval,
        # not twice that, even after the stop/start bounce.
        deployment.run(0.2)
        deployment.stop_clients()
        added = controller.polls - resumed
        expected = round(0.2 / controller.policy.poll_interval)
        assert added <= expected + 1

    def test_latency_baseline_tracks_the_floor_and_resensitizes(self):
        """A baseline learned from an attack-inflated first window must drop
        once the mode runs clean, so later genuine drift is still seen."""
        deployment, controller = build_adaptive(num_clients=1)
        metrics = deployment.metrics

        def feed(now, latency, count=5):
            for index in range(count):
                metrics.record_completion(
                    client_id="c0",
                    timestamp=len(metrics.records) + index,
                    sent_at=now - latency,
                    completed_at=now,
                )
            controller._check_latency_drift(Mode.PEACOCK, now)

        feed(1.0, latency=0.005)   # inflated first window becomes baseline
        assert controller._latency_baseline[Mode.PEACOCK] == pytest.approx(0.005)
        feed(2.0, latency=0.001)   # clean windows pull the floor down
        assert controller._latency_baseline[Mode.PEACOCK] == pytest.approx(0.001)
        feed(3.0, latency=0.015)   # 15x the true floor: drift must fire now
        estimate = controller.estimator.estimate(3.0)
        assert estimate.churn_events >= 1
        assert controller.estimator.counts_by_kind().get(EvidenceKind.LATENCY_DRIFT) == 1


class TestDecisionReporting:
    def test_decisions_render_as_a_table(self):
        deployment, controller = build_adaptive(num_clients=3)
        deployment.start_clients()
        deployment.run(0.05)
        make_byzantine(deployment.group(), "public-3", "equivocate")
        deployment.run(0.2)
        deployment.stop_clients()
        assert controller.switches_initiated >= 1
        text = format_adaptive_decisions(controller.decisions)
        assert "lion->peacock" in text
        assert "byzantine evidence" in text
        sharded = format_adaptive_decisions(controller.decisions, shard=2)
        assert "shard" in sharded.splitlines()[1]

    def test_empty_decision_table_renders_placeholder(self):
        assert "(no controller decisions)" in format_adaptive_decisions([])
