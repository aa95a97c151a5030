"""Unit tests for the SeeMoRe configuration, modes, and role functions."""

import pytest

from repro.core import Mode, SeeMoReConfig


def make_config(c=1, m=1, private=None, public=None):
    if private is None and public is None:
        return SeeMoReConfig.build(c, m)
    return SeeMoReConfig(
        private_replicas=tuple(private),
        public_replicas=tuple(public),
        crash_tolerance=c,
        byzantine_tolerance=m,
    )


class TestMode:
    def test_mode_properties(self):
        assert Mode.LION.has_trusted_primary
        assert Mode.DOG.has_trusted_primary
        assert not Mode.PEACOCK.has_trusted_primary
        assert not Mode.LION.uses_proxies
        assert Mode.DOG.uses_proxies
        assert Mode.PEACOCK.uses_proxies

    def test_phases_match_table1(self):
        assert Mode.LION.communication_phases == 2
        assert Mode.DOG.communication_phases == 2
        assert Mode.PEACOCK.communication_phases == 3

    def test_message_complexity_matches_table1(self):
        assert Mode.LION.message_complexity == "O(n)"
        assert Mode.DOG.message_complexity == "O(n^2)"
        assert Mode.PEACOCK.message_complexity == "O(n^2)"

    def test_describe_mentions_key_fact(self):
        assert "trusted primary" in Mode.LION.describe()
        assert "untrusted primary" in Mode.PEACOCK.describe()


class TestConfigConstruction:
    def test_build_uses_paper_layout(self):
        config = SeeMoReConfig.build(1, 1)
        # 2c private, 3m+1 public, N = 3m+2c+1 = 6.
        assert config.private_size == 2
        assert config.public_size == 4
        assert config.network_size == 6
        assert config.network_size == config.minimum_network_size

    def test_build_scales_with_tolerances(self):
        config = SeeMoReConfig.build(2, 2)
        assert config.network_size == 11
        config = SeeMoReConfig.build(1, 3)
        assert config.network_size == 12
        config = SeeMoReConfig.build(3, 1)
        assert config.network_size == 10

    def test_rejects_network_below_minimum(self):
        with pytest.raises(ValueError):
            make_config(c=1, m=1, private=["p0", "p1"], public=["u0", "u1"])

    def test_rejects_overlapping_clouds(self):
        with pytest.raises(ValueError):
            make_config(c=1, m=1, private=["x", "p1"], public=["x", "u1", "u2", "u3"])

    def test_rejects_no_private_replicas(self):
        with pytest.raises(ValueError):
            make_config(c=0, m=1, private=[], public=["u0", "u1", "u2", "u3"])

    def test_rejects_insufficient_private_cloud_for_crashes(self):
        with pytest.raises(ValueError):
            make_config(c=2, m=1, private=["p0", "p1"], public=["u0", "u1", "u2", "u3", "u4"])

    def test_rejects_insufficient_public_cloud_for_proxies(self):
        with pytest.raises(ValueError):
            make_config(c=2, m=1, private=["p0", "p1", "p2", "p3"], public=["u0", "u1", "u2"])

    def test_rejects_negative_tolerances(self):
        with pytest.raises(ValueError):
            SeeMoReConfig.build(-1, 1)

    def test_rejects_bad_checkpoint_period(self):
        with pytest.raises(ValueError):
            SeeMoReConfig.build(1, 1, checkpoint_period=0)

    def test_is_trusted(self):
        config = SeeMoReConfig.build(1, 1)
        assert config.is_trusted(config.private_replicas[0])
        assert not config.is_trusted(config.public_replicas[0])


class TestQuorums:
    def test_quorum_sizes_match_table1(self):
        config = SeeMoReConfig.build(1, 1)
        assert config.quorum_size(Mode.LION) == 4          # 2m+c+1
        assert config.quorum_size(Mode.DOG) == 3           # 2m+1
        assert config.quorum_size(Mode.PEACOCK) == 3       # 2m+1

    def test_receiving_network_size_matches_table1(self):
        config = SeeMoReConfig.build(1, 1)
        assert config.receiving_network_size(Mode.LION) == 6       # 3m+2c+1
        assert config.receiving_network_size(Mode.DOG) == 4        # 3m+1
        assert config.receiving_network_size(Mode.PEACOCK) == 4    # 3m+1

    def test_inform_quorums(self):
        config = SeeMoReConfig.build(1, 2)
        assert config.inform_quorum(Mode.DOG) == 5
        assert config.inform_quorum(Mode.PEACOCK) == 3

    @pytest.mark.parametrize("c", [1, 2])
    @pytest.mark.parametrize("m", [1, 2])
    def test_each_modes_phase_quorums_match_table1(self, c, m):
        """Accepts (prepares) that prepare a slot, commits that commit it at a proxy,
        and informs that commit it at a passive replica; Lion has neither of the last two."""
        config = SeeMoReConfig.build(c, m)
        table = {
            Mode.LION: (2 * m + c + 1, None, None),
            Mode.DOG: (2 * m + 1, m + 1, 2 * m + 1),
            Mode.PEACOCK: (2 * m + 1, 2 * m + 1, m + 1),
        }
        for mode, (accept, commit, inform) in table.items():
            assert config.accept_quorum(mode) == accept, mode
            if commit is not None:
                assert config.commit_quorum(mode) == commit, mode
                assert config.inform_quorum(mode) == inform, mode

    def test_proxy_count(self):
        assert SeeMoReConfig.build(1, 1).proxy_count == 4
        assert SeeMoReConfig.build(1, 3).proxy_count == 10


class TestRoles:
    def setup_method(self):
        self.config = SeeMoReConfig.build(2, 1)  # S=4, P=4

    def test_trusted_primary_rotates_over_private_cloud(self):
        primaries = {self.config.primary_of_view(v, Mode.LION) for v in range(8)}
        assert primaries == set(self.config.private_replicas)

    def test_peacock_primary_rotates_over_public_cloud(self):
        primaries = {self.config.primary_of_view(v, Mode.PEACOCK) for v in range(8)}
        assert primaries == set(self.config.public_replicas)

    def test_transferer_is_trusted(self):
        for view in range(8):
            assert self.config.is_trusted(self.config.transferer_of_view(view))

    def test_negative_view_rejected(self):
        with pytest.raises(ValueError):
            self.config.primary_of_view(-1, Mode.LION)
        with pytest.raises(ValueError):
            self.config.transferer_of_view(-1)

    def test_lion_has_no_proxies(self):
        assert self.config.proxies_of_view(0, Mode.LION) == []

    def test_proxies_are_public_and_correct_count(self):
        for view in range(6):
            proxies = self.config.proxies_of_view(view, Mode.DOG)
            assert len(proxies) == self.config.proxy_count
            assert all(not self.config.is_trusted(p) for p in proxies)

    def test_peacock_primary_is_always_a_proxy(self):
        for view in range(8):
            primary = self.config.primary_of_view(view, Mode.PEACOCK)
            assert primary in self.config.proxies_of_view(view, Mode.PEACOCK)

    def test_participants_lion_is_everyone(self):
        assert set(self.config.participants(0, Mode.LION)) == set(self.config.all_replicas)

    def test_participants_dog_is_primary_plus_proxies(self):
        participants = self.config.participants(0, Mode.DOG)
        assert self.config.primary_of_view(0, Mode.DOG) in participants
        assert len(participants) == 1 + self.config.proxy_count

    def test_participants_peacock_is_proxies_only(self):
        participants = self.config.participants(0, Mode.PEACOCK)
        assert all(not self.config.is_trusted(p) for p in participants)
        assert len(participants) == self.config.proxy_count

    def test_passive_replicas_complement_participants(self):
        for mode in (Mode.LION, Mode.DOG, Mode.PEACOCK):
            participants = set(self.config.participants(0, mode))
            passive = set(self.config.passive_replicas(0, mode))
            assert participants | passive == set(self.config.all_replicas)
            assert participants & passive == set()

    def test_proxy_rotation_changes_with_view(self):
        config = SeeMoReConfig.build(1, 1, public_size=6)
        first = config.proxies_of_view(0, Mode.PEACOCK)
        second = config.proxies_of_view(1, Mode.PEACOCK)
        assert first != second
