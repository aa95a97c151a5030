"""Unit tests for baseline protocol configurations and their client configs."""

import pytest

from repro.baselines import (
    PaxosConfig,
    PBFTConfig,
    UpRightConfig,
    paxos_client_config,
    pbft_client_config,
    upright_client_config,
)


class TestPaxosConfig:
    def test_build_sizes(self):
        config = PaxosConfig.build(2)
        assert config.network_size == 5           # 2f+1
        assert config.agreement_quorum == 3       # f+1
        assert config.client_reply_quorum == 1
        assert not config.messages_are_signed

    def test_too_small_network_rejected(self):
        with pytest.raises(ValueError):
            PaxosConfig(replicas=("a", "b"), crash_tolerance=1)

    def test_primary_rotates(self):
        config = PaxosConfig.build(1)
        primaries = {config.primary_of_view(v) for v in range(6)}
        assert primaries == set(config.replicas)

    def test_negative_view_rejected(self):
        with pytest.raises(ValueError):
            PaxosConfig.build(1).primary_of_view(-1)


class TestPBFTConfig:
    def test_build_sizes(self):
        config = PBFTConfig.build(2)
        assert config.network_size == 7           # 3f+1
        assert config.agreement_quorum == 5       # 2f+1
        assert config.commit_quorum == 5
        assert config.client_reply_quorum == 3    # f+1
        assert config.messages_are_signed

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            PBFTConfig(replicas=("a", "b", "c"), byzantine_tolerance=1)


class TestUpRightConfig:
    def test_hybrid_sizes_match_paper(self):
        config = UpRightConfig.build(crash_tolerance=1, byzantine_tolerance=1)
        assert config.network_size == 6           # 3m+2c+1
        assert config.agreement_quorum == 4       # 2m+c+1
        assert config.client_reply_quorum == 2    # m+1

    def test_figure2_network_sizes(self):
        # Figure 2 captions: S-UpRight networks of 6, 11, 12, and 10 nodes.
        assert UpRightConfig.build(1, 1).network_size == 6
        assert UpRightConfig.build(2, 2).network_size == 11
        assert UpRightConfig.build(1, 3).network_size == 12
        assert UpRightConfig.build(3, 1).network_size == 10

    def test_messages_signed_because_faults_not_localised(self):
        assert UpRightConfig.build(1, 1).messages_are_signed


class TestBaselineClientConfigs:
    def test_paxos_client_accepts_single_leader_reply(self):
        config = PaxosConfig.build(1)
        client_config = paxos_client_config(config)
        assert client_config.request_targets(0, 0) == [config.primary_of_view(0)]
        assert client_config.rules[0].trusted == client_config.members == frozenset(config.replicas)
        assert set(client_config.retransmit_targets(0, 0)) == set(config.replicas)

    def test_pbft_client_needs_f_plus_1_matching(self):
        config = PBFTConfig.build(2)
        client_config = pbft_client_config(config)
        assert client_config.rules == {0: (frozenset(), 3, 3)}
        assert client_config.members == frozenset(config.replicas)

    def test_upright_client_needs_m_plus_1_matching(self):
        config = UpRightConfig.build(crash_tolerance=2, byzantine_tolerance=1)
        client_config = upright_client_config(config)
        assert client_config.rules == {0: (frozenset(), 2, 2)}

    def test_client_targets_follow_the_view(self):
        config = PBFTConfig.build(1)
        client_config = pbft_client_config(config)
        assert client_config.request_targets(0, 0) == [config.primary_of_view(0)]
        assert client_config.request_targets(1, 0) == [config.primary_of_view(1)]
