"""Unit tests for the fault-injection helpers themselves."""

import pytest

from repro.cluster import build_seemore
from repro.core import Mode
from repro.faults import (
    BYZANTINE_STRATEGIES,
    crash_primary,
    crash_replica,
    make_byzantine,
    recover_replica,
)
from repro.faults.crash import current_primary_id


@pytest.fixture
def deployment():
    return build_seemore(crash_tolerance=1, byzantine_tolerance=1, num_clients=1, seed=9)


class TestCrashHelpers:
    def test_crash_replica_marks_faulty(self, deployment):
        config = deployment.group().config
        victim = config.public_replicas[0]
        crash_replica(deployment.group(), victim)
        assert deployment.replicas[victim].crashed
        assert victim in deployment.faulty_replicas
        assert deployment.replicas[victim] not in deployment.correct_replicas()

    def test_crash_unknown_replica(self, deployment):
        with pytest.raises(KeyError):
            crash_replica(deployment.group(), "ghost")

    def test_current_primary_id_matches_config(self, deployment):
        config = deployment.group().config
        assert current_primary_id(deployment.group()) == config.primary_of_view(0, Mode.LION)

    def test_crash_primary_returns_its_id(self, deployment):
        config = deployment.group().config
        crashed = crash_primary(deployment.group())
        assert crashed == config.primary_of_view(0, Mode.LION)
        assert deployment.replicas[crashed].crashed

    def test_recover_replica(self, deployment):
        config = deployment.group().config
        victim = config.private_replicas[1]
        crash_replica(deployment.group(), victim)
        recover_replica(deployment.group(), victim)
        assert not deployment.replicas[victim].crashed


class TestByzantineHelpers:
    def test_all_strategies_are_applicable(self, deployment):
        config = deployment.group().config
        for index, strategy in enumerate(sorted(BYZANTINE_STRATEGIES)):
            fresh = build_seemore(
                crash_tolerance=1, byzantine_tolerance=1, num_clients=1, seed=index
            )
            victim = fresh.group().config.public_replicas[0]
            make_byzantine(fresh.group(), victim, strategy)
            assert victim in fresh.faulty_replicas

    def test_private_cloud_target_rejected(self, deployment):
        config = deployment.group().config
        with pytest.raises(ValueError):
            make_byzantine(deployment.group(), config.private_replicas[0], "silent")

    def test_unknown_strategy_rejected(self, deployment):
        config = deployment.group().config
        with pytest.raises(ValueError):
            make_byzantine(deployment.group(), config.public_replicas[0], "not-a-strategy")

    def test_silent_replica_sends_nothing(self, deployment):
        config = deployment.group().config
        victim_id = config.public_replicas[0]
        victim = deployment.replicas[victim_id]
        make_byzantine(deployment.group(), victim_id, "silent")
        before = deployment.network.messages_offered
        victim.send(config.private_replicas[0], "anything")
        deployment.simulator.run(until=0.01)
        assert deployment.network.messages_offered == before
