"""The sharded fault-scenario library, plus checker-detection tests.

Every library scenario's verdict (and its golden counters) is asserted once
in ``tests/test_scenarios_matrix.py``; this file holds what is specific to
the sharded kind: that the scenarios exercise what they claim to, and that
each sharded checker and expectation detects what it exists to detect.
"""

import random
from dataclasses import replace

import pytest

from repro.core import Mode
from repro.scenarios import (
    SHARDED_BASE,
    SHARDED_SCENARIOS,
    CrossShardAtomicity,
    IsolateShard,
    NoForgedReplies,
    OnShard,
    TransactionsAtLeast,
    run_scenario,
)
from repro.scenarios.events import ClientSurge, Crash
from repro.smr.messages import Reply
from repro.smr.state_machine import Operation

pytestmark = [pytest.mark.shard, pytest.mark.integration]

PROBE = replace(SHARDED_BASE, name="probe", duration=0.2)


class TestShardedScenarioLibrary:
    def test_single_shard_crash_scenario_exercises_a_view_change(self):
        result = run_scenario(SHARDED_SCENARIOS["shard-primary-crash-mid-traffic"])
        result.assert_ok()
        # The atomicity contract is the point of the library.
        assert "cross-shard-atomicity" not in result.invariant_violations
        assert any("crash" in label for _, label in result.events_applied)
        assert result.transactions["committed"] >= 3
        assert result.max_view >= 1
        assert result.mode == "lion/lion/lion"
        assert len(result.per_shard_completed) == 3 and all(result.per_shard_completed)

    def test_isolation_scenario_really_aborts_transactions(self):
        result = run_scenario(SHARDED_SCENARIOS["shard-isolated-then-heals"])
        result.assert_ok()
        assert result.transactions["aborted"] >= 1
        assert [label for _, label in result.events_applied] == [
            "isolate-shard(1)",
            "heal-partition",
        ]

    def test_a_sharded_scenario_takes_no_run_wide_mode(self):
        with pytest.raises(TypeError, match="mode per shard"):
            run_scenario(PROBE, Mode.DOG)

    def test_a_prebuilt_deployment_is_the_one_that_runs(self):
        deployment = PROBE.build()
        result = run_scenario(PROBE, deployment=deployment)
        assert result.completed == deployment.metrics.completed > 0

    def test_admission_control_sits_on_every_shard(self):
        from repro.core import AdmissionPolicy

        policy = AdmissionPolicy(max_outstanding=4)
        deployment = replace(PROBE, admission=policy).build()
        assert [group.config.admission for group in deployment.shards] == [policy, policy]

    def test_client_surge_spawns_routed_clients(self):
        deployment = PROBE.build()
        ClientSurge(at=0.0, count=2).apply(deployment)
        assert len(deployment.clients) == PROBE.num_clients + 2
        assert all(client.router is deployment.router for client in deployment.clients)


class TestShardedExpectations:
    def test_transaction_floors_are_ordinary_expectations(self):
        # No cross-shard traffic: neither a commit nor an abort can happen.
        scenario = replace(
            PROBE,
            name="no-transactions",
            workload=replace(PROBE.workload, cross_shard_fraction=0.0),
            expectations=(TransactionsAtLeast("committed", 2), TransactionsAtLeast("aborted", 1)),
        )
        result = run_scenario(scenario)
        assert result.invariant_violations == {}
        assert result.expectation_failures == [
            "only 0 cross-shard transactions committed (expected >= 2)",
            "only 0 cross-shard transactions aborted (expected >= 1)",
        ]

    def test_the_base_expects_one_committed_transaction(self):
        assert PROBE.expectations == (TransactionsAtLeast("committed", 1),)


class TestShardedCheckersDetect:
    def test_atomicity_checker_flags_a_split_decision(self):
        deployment = PROBE.build()
        # Forge a split decision directly in the state machines: shard 0
        # committed a transaction shard 1 aborted.
        shard0_store = deployment.shards[0].correct_replicas()[0].executor.state_machine
        shard1_store = deployment.shards[1].correct_replicas()[0].executor.state_machine
        shard0_store.txn_decisions["evil:1"] = "commit"
        shard1_store.txn_decisions["evil:1"] = "abort"

        checker = CrossShardAtomicity()
        violations = checker.check(deployment)
        assert len(violations) == 1
        assert "evil:1" in violations[0]
        assert "committed" in violations[0] and "aborted" in violations[0]

    def test_scenario_events_must_fire_within_the_duration(self):
        scenario = replace(
            PROBE,
            name="late-event",
            events=(OnShard(at=0.5, shard=0, event=Crash(at=0.0, target="primary")),),
        )
        with pytest.raises(ValueError):
            run_scenario(scenario)

    def test_isolate_shard_partitions_replicas_from_clients(self):
        deployment = PROBE.build()
        IsolateShard(at=0.0, shard=1).apply(deployment)
        conditions = deployment.network.conditions
        isolated = sorted(deployment.shards[1].replicas)
        client = deployment.clients[0].node_id
        other = sorted(deployment.shards[0].replicas)[0]

        rng = random.Random(0)
        assert conditions.should_drop(client, isolated[0], rng)
        assert conditions.should_drop(isolated[0], client, rng)
        assert not conditions.should_drop(client, other, rng)


class TestNoForgedRepliesOnShards:
    """The one NoForgedReplies judges by the group that owns the request."""

    @staticmethod
    def _first_completion(checker):
        """Run a probe deployment until one single-shard request completed.

        Returns the deployment, the client, the request's timestamp, the
        owning shard, and the result the client accepted.
        """
        deployment = replace(PROBE, num_clients=1).build()
        checker.attach(deployment)
        deployment.start_clients()
        deployment.run(0.05)
        deployment.stop_clients()
        deployment.run(0.2)
        assert checker.finalize(deployment) == []
        client = deployment.clients[0]
        ((client_id, accepted_by_timestamp),) = checker._accepted.items()
        timestamp, (shard, accepted) = sorted(accepted_by_timestamp.items())[0]
        assert client_id == client.node_id
        return deployment, client, timestamp, shard, accepted

    @staticmethod
    def _complete_again(client, timestamp, shard, result):
        """Have the client accept one more result for ``timestamp`` on ``shard``."""
        session = client.sessions[shard]
        client._next_timestamp = timestamp - 1  # the next request reuses the timestamp
        client._submit(session, Operation("get", ("k",)), client.now)
        pending = client._pending[timestamp]
        sender = sorted(session.rules[session.known_mode].trusted or session.config.members)[0]
        reply = Reply(session.known_mode, 0, timestamp, client.node_id, sender, result)
        client._complete(reply, pending, result, reply.result_digest())

    def test_two_different_results_for_one_timestamp_are_flagged(self):
        checker = NoForgedReplies()
        deployment, client, timestamp, shard, _ = self._first_completion(checker)
        self._complete_again(client, timestamp, shard, {"forged": True})
        violations = checker.finalize(deployment)
        assert any(
            f"accepted two different results for timestamp {timestamp}" in violation
            for violation in violations
        )

    def test_a_reply_only_a_non_owning_shard_vouches_for_is_flagged(self):
        checker = NoForgedReplies()
        deployment, client, timestamp, shard, accepted = self._first_completion(checker)
        other = 1 - shard
        forged = {"forged": True}
        # Every correct replica of the *other* shard "executed" the request
        # with the forged result; the owning shard produced the honest one.
        for replica in deployment.shards[other].correct_replicas():
            replica.executor._replies.setdefault(client.node_id, {})[timestamp] = forged
        checker._accepted[client.node_id][timestamp] = (shard, forged)
        violations = checker.finalize(deployment)
        assert violations == [
            f"client {client.node_id} accepted a forged result for timestamp "
            f"{timestamp}: no correct replica of shard {shard} produced it"
        ]
        # Had the request belonged to the other shard, the same reply would
        # be genuine: ownership, not mere existence, decides.
        checker._accepted[client.node_id][timestamp] = (other, forged)
        assert checker.finalize(deployment) == []
