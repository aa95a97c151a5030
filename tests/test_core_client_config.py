"""Unit tests for the per-mode SeeMoRe client configuration (Section 5 client rules)."""

import pytest

from repro.core import Mode, SeeMoReConfig, client_config_for_mode


@pytest.fixture
def config():
    return SeeMoReConfig.build(crash_tolerance=1, byzantine_tolerance=2)


class TestLionClientConfig:
    def test_sends_to_trusted_primary(self, config):
        client_config = client_config_for_mode(config, Mode.LION)
        targets = client_config.request_targets(0, int(Mode.LION))
        assert targets == [config.primary_of_view(0, Mode.LION)]
        assert config.is_trusted(targets[0])

    def test_one_private_reply_or_m_plus_1_public_replies(self, config):
        rule = client_config_for_mode(config, Mode.LION).rules[int(Mode.LION)]
        assert rule.trusted == frozenset(config.private_replicas)
        # "One reply" never applies to the public cloud, retransmitted or not.
        assert rule.quorum == rule.retransmit_quorum == config.byzantine_tolerance + 1

    def test_retransmission_goes_to_everyone(self, config):
        client_config = client_config_for_mode(config, Mode.LION)
        assert set(client_config.retransmit_targets(0, int(Mode.LION))) == set(
            config.all_replicas
        )


class TestDogClientConfig:
    def test_needs_2m_plus_1_matching_proxy_replies(self, config):
        rule = client_config_for_mode(config, Mode.DOG).rules[int(Mode.DOG)]
        assert rule.quorum == 2 * config.byzantine_tolerance + 1
        assert rule.retransmit_quorum == config.byzantine_tolerance + 1
        assert rule.trusted == frozenset()

    def test_retransmission_targets_are_the_proxies(self, config):
        client_config = client_config_for_mode(config, Mode.DOG)
        targets = client_config.retransmit_targets(0, int(Mode.DOG))
        assert set(targets) == set(config.proxies_of_view(0, Mode.DOG))


class TestPeacockClientConfig:
    def test_sends_to_untrusted_primary(self, config):
        client_config = client_config_for_mode(config, Mode.PEACOCK)
        targets = client_config.request_targets(0, int(Mode.PEACOCK))
        assert targets == [config.primary_of_view(0, Mode.PEACOCK)]
        assert not config.is_trusted(targets[0])

    def test_needs_m_plus_1_matching_replies(self, config):
        rule = client_config_for_mode(config, Mode.PEACOCK).rules[int(Mode.PEACOCK)]
        assert rule.quorum == rule.retransmit_quorum == config.byzantine_tolerance + 1
        assert rule.trusted == frozenset()


class TestModeAwareness:
    def test_the_rule_table_is_the_same_whatever_the_initial_mode(self, config):
        # A client built for the Lion mode must apply the Dog rule once the
        # service reports it has switched to the Dog mode, and vice versa.
        tables = [client_config_for_mode(config, mode).rules for mode in Mode]
        assert tables[0] == tables[1] == tables[2]
        assert set(tables[0]) == {int(mode) for mode in Mode}

    def test_every_replica_is_a_member_and_nobody_else(self, config):
        for mode in Mode:
            assert client_config_for_mode(config, mode).members == frozenset(config.all_replicas)

    def test_targets_follow_reported_mode(self, config):
        client_config = client_config_for_mode(config, Mode.LION)
        lion_target = client_config.request_targets(0, int(Mode.LION))[0]
        peacock_target = client_config.request_targets(0, int(Mode.PEACOCK))[0]
        assert config.is_trusted(lion_target)
        assert not config.is_trusted(peacock_target)

    def test_unknown_mode_id_falls_back_to_initial_mode(self, config):
        client_config = client_config_for_mode(config, Mode.LION)
        targets = client_config.request_targets(0, 99)
        assert targets == [config.primary_of_view(0, Mode.LION)]
