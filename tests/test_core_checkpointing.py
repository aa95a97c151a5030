"""Unit tests for checkpointing, garbage collection, and state transfer."""

import pytest

from repro.cluster import build_seemore, run_deployment
from repro.core import Mode
from repro.smr.checkpointing import CheckpointManager
from repro.workload import Workload


class TestCheckpointManager:
    def test_checkpoint_sequence_detection(self):
        manager = CheckpointManager(period=10)
        assert manager.is_checkpoint_sequence(10)
        assert manager.is_checkpoint_sequence(20)
        assert not manager.is_checkpoint_sequence(5)
        assert not manager.is_checkpoint_sequence(0)

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            CheckpointManager(period=0)

    def test_vote_counting(self):
        manager = CheckpointManager(period=10)
        assert manager.record_vote(10, "digest-a", "r0") == 1
        assert manager.record_vote(10, "digest-a", "r1") == 2
        assert manager.record_vote(10, "digest-a", "r1") == 2  # duplicate voter
        assert manager.record_vote(10, "digest-b", "r2") == 1  # different digest
        assert manager.vote_count(10, "digest-a") == 2

    def test_mark_stable_moves_forward_only(self):
        manager = CheckpointManager(period=10)
        assert manager.mark_stable(10, "d1")
        assert not manager.mark_stable(10, "d1")
        assert not manager.mark_stable(5, "d0")
        assert manager.mark_stable(20, "d2")
        assert manager.stable_sequence == 20

    def test_mark_stable_discards_old_votes(self):
        manager = CheckpointManager(period=10)
        manager.record_vote(10, "d", "r0")
        manager.mark_stable(10, "d")
        assert manager.vote_count(10, "d") == 0

    def test_local_snapshots_keep_recent_two(self):
        manager = CheckpointManager(period=10)
        for sequence in (10, 20, 30):
            manager.record_local_checkpoint(sequence, f"d{sequence}", {"state": sequence})
        assert manager.snapshot_at(10) is None
        assert manager.snapshot_at(20) == {"state": 20}
        assert manager.snapshot_at(30) == {"state": 30}
        latest_sequence, latest = manager.latest_snapshot()
        assert latest_sequence == 30
        assert latest == {"state": 30}

    def test_latest_snapshot_when_empty(self):
        sequence, snapshot = CheckpointManager(period=10).latest_snapshot()
        assert sequence == 0
        assert snapshot is None


@pytest.mark.integration
class TestCheckpointingInDeployment:
    """Checkpoints are produced, become stable, and garbage-collect logs."""

    @pytest.mark.parametrize(
        "mode",
        [
            Mode.LION,
            pytest.param(Mode.DOG, marks=pytest.mark.slow),
            pytest.param(Mode.PEACOCK, marks=pytest.mark.slow),
        ],
    )
    def test_checkpoints_become_stable_and_gc_runs(self, mode):
        deployment = build_seemore(
            crash_tolerance=1,
            byzantine_tolerance=1,
            mode=mode,
            workload=Workload.build("0/0"),
            num_clients=4,
            checkpoint_period=32,
            seed=2,
        )
        result = run_deployment(deployment, duration=0.6, warmup=0.1)
        assert result.completed > 64, "need enough requests to cross checkpoint boundaries"
        stable = [r.checkpoints.stable_sequence for r in deployment.correct_replicas()]
        assert max(stable) >= 32, (
            f"{mode.name}: at least one replica should have a stable checkpoint"
        )
        # Garbage collection: slots below the stable checkpoint are discarded.
        for replica in deployment.correct_replicas():
            if replica.checkpoints.stable_sequence > 0:
                assert replica.slots.low_watermark == replica.checkpoints.stable_sequence

    @pytest.mark.slow
    def test_checkpoint_digests_agree_across_replicas(self):
        deployment = build_seemore(
            crash_tolerance=1,
            byzantine_tolerance=1,
            mode=Mode.LION,
            workload=Workload.build("0/0"),
            num_clients=4,
            checkpoint_period=32,
            seed=3,
        )
        run_deployment(deployment, duration=0.6, warmup=0.1)
        digests = {}
        for replica in deployment.correct_replicas():
            manager = replica.checkpoints
            if manager.stable_sequence:
                digests.setdefault(manager.stable_sequence, set()).add(manager.stable_digest)
        assert digests, "at least one stable checkpoint expected"
        for sequence, observed in digests.items():
            assert len(observed) == 1, f"checkpoint digests diverged at {sequence}"
