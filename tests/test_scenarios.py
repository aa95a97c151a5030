"""Unit tests for the scenario subsystem itself.

The full matrix lives in ``test_scenarios_matrix.py``; these tests pin
down the engine's pieces: role resolution, event application, the
invariant checkers' ability to actually *detect* violations (a checker
that never fires is worse than none), expectations, and reporting.
"""

import pytest

from repro.analysis import format_scenario_results
from repro.cluster import build_seemore
from repro.core import Mode
from repro.scenarios import (
    SCENARIOS,
    Byzantine,
    CheckpointAgreement,
    ClearLinkDegradation,
    ClientSurge,
    CommittedPrefixAgreement,
    Crash,
    ExactlyOnceExecution,
    HealPartition,
    LinkDegradation,
    ModeSwitch,
    NoForgedReplies,
    Partition,
    Scenario,
    run_scenario,
    resolve_target,
    scenario_by_name,
)
from repro.scenarios.engine import ModeIs, OpenLoop, ProgressAfter
from repro.smr.ledger import LedgerEntry
from repro.smr.executor import ExecutionResult
from repro.workload import Workload
from repro.workload.openloop import PoissonArrivals


def small_deployment(mode=Mode.LION, **kwargs):
    return build_seemore(
        crash_tolerance=1,
        byzantine_tolerance=1,
        mode=mode,
        workload=Workload.build("0/0"),
        num_clients=kwargs.pop("num_clients", 1),
        seed=kwargs.pop("seed", 3),
        **kwargs,
    )


class TestLibrary:
    def test_registry_names_match_scenarios(self):
        for name, scenario in SCENARIOS.items():
            assert scenario.name == name

    def test_lookup_unknown_scenario_lists_options(self):
        with pytest.raises(KeyError, match="primary-crash-mid-batch"):
            scenario_by_name("not-a-scenario")

    def test_every_scenario_has_events_and_expectations(self):
        for scenario in SCENARIOS.values():
            assert scenario.events, scenario.name
            assert scenario.expectations, scenario.name
            last_event = max(event.at for event in scenario.events)
            assert last_event < scenario.duration, scenario.name
            for expectation in scenario.expectations:
                for at in expectation.probe_times():
                    assert at < scenario.duration, (scenario.name, expectation)


class TestTargetResolution:
    def test_primary_role(self):
        deployment = small_deployment()
        config = deployment.group().config
        assert resolve_target(deployment.group(), "primary") == config.primary_of_view(0, Mode.LION)

    def test_cloud_index_roles(self):
        deployment = small_deployment()
        config = deployment.group().config
        assert resolve_target(deployment.group(), "private:1") == config.private_replicas[1]
        assert resolve_target(deployment.group(), "public:2") == config.public_replicas[2]

    def test_public_primary_prefers_untrusted_primary(self):
        peacock = small_deployment(mode=Mode.PEACOCK)
        config = peacock.group().config
        assert resolve_target(peacock.group(), "public-primary") == config.primary_of_view(
            0, Mode.PEACOCK
        )
        lion = small_deployment(mode=Mode.LION)
        resolved = resolve_target(lion.group(), "public-primary")
        assert resolved in lion.group().config.public_replicas

    def test_public_backup_is_never_the_primary(self):
        deployment = small_deployment(mode=Mode.PEACOCK)
        config = deployment.group().config
        primary = config.primary_of_view(0, Mode.PEACOCK)
        assert resolve_target(deployment.group(), "public-backup") != primary

    def test_unknown_target_raises(self):
        with pytest.raises(KeyError):
            resolve_target(small_deployment(), "ghost")


class TestEvents:
    def test_partition_and_heal(self):
        deployment = small_deployment()
        config = deployment.group().config
        Partition(at=0.0, groups=(("private",), ("public",))).apply(deployment)
        conditions = deployment.network.conditions
        assert conditions._is_partitioned(
            config.private_replicas[0], config.public_replicas[0]
        )
        HealPartition(at=0.0).apply(deployment)
        assert not conditions._is_partitioned(
            config.private_replicas[0], config.public_replicas[0]
        )

    def test_link_degradation_targets_cross_cloud_only(self):
        deployment = small_deployment()
        config = deployment.group().config
        LinkDegradation(at=0.0, delay=0.005, link_class="cross").apply(deployment)
        conditions = deployment.network.conditions
        private, public = config.private_replicas[0], config.public_replicas[0]
        assert conditions.extra_delay(private, public) == 0.005
        assert conditions.extra_delay(private, config.private_replicas[1]) == 0.0
        ClearLinkDegradation(at=0.0).apply(deployment)
        assert conditions.extra_delay(private, public) == 0.0

    def test_client_surge_spawns_and_starts(self):
        deployment = small_deployment()
        before = len(deployment.clients)
        ClientSurge(at=0.0, count=3).apply(deployment)
        assert len(deployment.clients) == before + 3
        # Started clients have a request outstanding immediately.
        assert all(client.outstanding_count > 0 for client in deployment.clients[-3:])

    def test_crash_event_resolves_primary_at_fire_time(self):
        deployment = small_deployment()
        config = deployment.group().config
        Crash(at=0.0, target="primary").apply(deployment)
        assert deployment.replicas[config.primary_of_view(0, Mode.LION)].crashed

    def test_byzantine_event_respects_hybrid_model(self):
        deployment = small_deployment()
        with pytest.raises(ValueError):
            Byzantine(at=0.0, target="private:0", strategy="silent").apply(deployment)

    def test_mode_switch_next_cycles(self):
        deployment = small_deployment(mode=Mode.PEACOCK)
        ModeSwitch(at=0.0, new_mode="next").apply(deployment)
        deployment.simulator.run(until=0.5)
        modes = {replica.mode for replica in deployment.correct_replicas()}
        assert modes == {Mode.LION}


class TestInvariantCheckersDetect:
    """Each checker must actually fire when its invariant is broken."""

    def test_committed_prefix_agreement_detects_fork(self):
        deployment = small_deployment()
        first, second = deployment.correct_replicas()[:2]
        first.ledger.record(
            LedgerEntry(sequence=1, digest="aaaa", view=0, client_id="c", timestamp=1)
        )
        second.ledger.record(
            LedgerEntry(sequence=1, digest="bbbb", view=0, client_id="c", timestamp=1)
        )
        violations = CommittedPrefixAgreement().check(deployment)
        assert violations and "sequence 1" in violations[0]

    def test_committed_prefix_agreement_reports_one_fork_once(self):
        deployment = small_deployment()
        first, second = deployment.correct_replicas()[:2]
        first.ledger.record(
            LedgerEntry(sequence=1, digest="aaaa", view=0, client_id="c", timestamp=1)
        )
        second.ledger.record(
            LedgerEntry(sequence=1, digest="bbbb", view=0, client_id="c", timestamp=1)
        )
        checker = CommittedPrefixAgreement()
        checker.check(deployment)
        # The final pairwise pass phrases the same conflict with the replicas
        # in sorted order; it must not be reported a second time.
        final = checker.finalize(deployment)
        assert len([v for v in final if "sequence 1" in v]) == 1

    def test_no_forged_replies_detects_unexecuted_acceptance(self):
        deployment = small_deployment()
        checker = NoForgedReplies()
        checker.attach(deployment)
        checker._accepted["client-0"][1] = (0, {"ok": False, "value": "forged"})
        violations = checker.finalize(deployment)
        assert violations and "ever executed" in violations[0]

    def test_no_forged_replies_detects_result_mismatch(self):
        deployment = small_deployment()
        checker = NoForgedReplies()
        checker.attach(deployment)
        replica = deployment.correct_replicas()[0]
        replica.executor.commit(1, "client-0", 1, Workload.build("0/0").operation_factory()(1))
        checker._accepted["client-0"][1] = (0, {"ok": False, "value": "forged"})
        violations = checker.finalize(deployment)
        assert violations and "forged" in violations[0]

    def test_exactly_once_detects_double_execution(self):
        deployment = small_deployment()
        checker = ExactlyOnceExecution()
        replica = deployment.correct_replicas()[0]
        replica.executor.executed.extend(
            [
                ExecutionResult(sequence=1, client_id="c", timestamp=1, result={"v": 1}),
                ExecutionResult(sequence=2, client_id="c", timestamp=1, result={"v": 2}),
            ]
        )
        violations = checker.check(deployment)
        assert violations and "twice" in violations[0]

    def test_exactly_once_detects_cross_replica_disagreement(self):
        deployment = small_deployment()
        checker = ExactlyOnceExecution()
        first, second = deployment.correct_replicas()[:2]
        first.executor.executed.append(
            ExecutionResult(sequence=1, client_id="c", timestamp=1, result={"v": 1})
        )
        second.executor.executed.append(
            ExecutionResult(sequence=1, client_id="c", timestamp=1, result={"v": 2})
        )
        violations = checker.check(deployment)
        assert violations and "disagree" in violations[0]

    def test_checkpoint_agreement_detects_divergent_digests(self):
        deployment = small_deployment()
        checker = CheckpointAgreement()
        first, second = deployment.correct_replicas()[:2]
        first.checkpoints.mark_stable(128, "digest-a")
        second.checkpoints.mark_stable(128, "digest-b")
        violations = checker.check(deployment)
        assert violations and "checkpoint at sequence 128" in violations[0]

    def test_clean_deployment_has_no_violations(self):
        deployment = small_deployment()
        for checker in (
            CommittedPrefixAgreement(),
            ExactlyOnceExecution(),
            CheckpointAgreement(),
        ):
            assert checker.check(deployment) == []


class TestEngine:
    def test_unreachable_event_or_probe_is_rejected(self):
        beyond_end = Scenario(
            name="event-after-end",
            description="event scheduled past the run",
            events=(Crash(at=1.0, target="primary"),),
            duration=0.5,
        )
        with pytest.raises(ValueError, match="never fires"):
            run_scenario(beyond_end, Mode.LION)
        unreachable_probe = Scenario(
            name="probe-after-end",
            description="probe scheduled past the run",
            events=(Crash(at=0.1, target="primary"),),
            expectations=(ProgressAfter(at=2.0),),
            duration=0.5,
        )
        with pytest.raises(ValueError, match="never captured"):
            run_scenario(unreachable_probe, Mode.LION)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("duration", 0.0),
            ("duration", -1.0),
            ("settle", -0.1),
            ("check_interval", 0.0),
            ("check_interval", -0.05),
        ],
    )
    def test_timing_inputs_are_refused_before_the_clock_starts(self, field, value):
        with pytest.raises(ValueError, match=field):
            Scenario(name="bad-timing", description="refused", **{field: value})

    def test_a_negative_open_loop_warmup_is_refused(self):
        with pytest.raises(ValueError, match="warmup"):
            OpenLoop(arrivals=PoissonArrivals, warmup=-0.1)

    def test_zero_settle_and_warmup_are_allowed(self):
        Scenario(name="no-settle", description="ok", settle=0.0)
        OpenLoop(arrivals=PoissonArrivals, warmup=0.0)

    def test_state_transfers_counted_for_recovered_replicas(self):
        result = run_scenario(SCENARIOS["recover-via-state-transfer"], Mode.LION)
        result.assert_ok()
        assert result.state_transfers >= 1, (
            "the report must show the recovered replica's state transfer even "
            "though it stays in the conservative faulty set"
        )

    def test_failing_expectation_is_reported_not_raised(self):
        impossible = Scenario(
            name="impossible-progress",
            description="nothing can complete this much this fast",
            events=(Crash(at=0.05, target="primary"),),
            expectations=(ProgressAfter(at=0.06, min_completed=10**9),),
            duration=0.2,
            settle=0.05,
            min_completed=1,
        )
        result = run_scenario(impossible, Mode.LION)
        assert not result.ok
        assert result.expectation_failures
        with pytest.raises(AssertionError, match="impossible-progress"):
            result.assert_ok()

    def test_events_are_recorded_with_fire_times(self):
        scenario = SCENARIOS["crash-recover-backup"]
        result = run_scenario(scenario, Mode.LION)
        labels = [label for _, label in result.events_applied]
        assert labels == ["crash(private:1)", "recover(private:1)"]
        times = [at for at, _ in result.events_applied]
        assert times == sorted(times)

    def test_mode_is_expectation_relative_to_initial_mode(self):
        scenario = Scenario(
            name="switch-once",
            description="one mode switch",
            events=(ModeSwitch(at=0.1, new_mode="next"),),
            expectations=(ModeIs(steps=1), ProgressAfter(at=0.3, min_completed=1)),
            duration=0.5,
        )
        result = run_scenario(scenario, Mode.DOG)
        result.assert_ok()
        assert result.final_modes == ("PEACOCK",)

    def test_without_checkers_nothing_is_sampled(self):
        scenario = Scenario(name="steady", description="no faults", duration=0.2)
        sampled = run_scenario(scenario, Mode.LION)
        bare = run_scenario(scenario, Mode.LION, checkers=())
        assert bare.completed == sampled.completed > 0
        assert bare.events_processed < sampled.events_processed

    def test_report_formatting(self):
        result = run_scenario(SCENARIOS["silent-byzantine-proxy"], Mode.LION)
        text = format_scenario_results([result])
        assert "silent-byzantine-proxy" in text
        assert "verdict" in text
        assert "1/1 scenario runs passed" in text
