"""Unit tests for checkpointing, garbage collection, and state transfer."""

import gc
import sys
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import build_pbft, build_seemore, run_deployment
from repro.core import Mode
from repro.core import messages as msgs
from repro.smr import Counter, Operation, OrderedExecutor
from repro.smr.checkpointing import CheckpointManager
from repro.smr.messages import Commit, PrePrepare, Request
from repro.smr.replica import request_digest
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
        executor = OrderedExecutor(Counter())
        for sequence in range(1, 31):
            executor.commit(sequence, "c1", sequence, Operation("add", (1,)))
            if manager.is_checkpoint_sequence(sequence):
                manager.record_local_checkpoint(sequence, f"d{sequence}", executor.cut())
        assert manager.snapshot_at(10) is None
        assert manager.snapshot_at(20)["state"] == 20
        assert len(manager.snapshot_at(20)["replies"]) == 20
        assert manager.snapshot_at(30)["next_sequence"] == 31
        latest_sequence, latest = manager.latest_snapshot()
        assert latest_sequence == 30
        assert latest == executor.snapshot()

    def test_latest_snapshot_when_empty(self):
        sequence, snapshot = CheckpointManager(period=10).latest_snapshot()
        assert sequence == 0
        assert snapshot is None


#: One step of an executor's life: commit ``(client, timestamp)`` at ``lag``
#: sequences past the next one to execute (a lag leaves a gap that a later
#: commit fills, so one commit may drain several checkpoints), or restore.
executor_steps = st.lists(
    st.one_of(
        st.tuples(st.just("commit"), st.integers(0, 2), st.integers(1, 6), st.integers(0, 2)),
        st.tuples(
            st.just("restore"),
            st.integers(1, 3),
            st.dictionaries(
                st.tuples(st.sampled_from(["c0", "c1", "c9"]), st.integers(1, 6)),
                st.integers(-9, -1),
            ),
        ),
    ),
    max_size=60,
)


class TestLazyCheckpointSnapshots:
    """A checkpoint keeps each client's reply-table length, not a copy of the replies."""

    @given(executor_steps)
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_a_cut_materializes_the_eager_snapshot_of_its_boundary(self, steps):
        executor = OrderedExecutor(Counter())
        taken = []  # (cut, the eager snapshot taken beside it)
        executor.set_checkpoint_hook(
            2, lambda _: taken.append((executor.cut(), executor.snapshot()))
        )
        for step in steps:
            if step[0] == "commit":
                _, client, timestamp, lag = step
                # Timestamps repeat, so some commits are duplicates served from
                # the reply table; a lag that lands on a pending or executed
                # sequence is a duplicate commit.
                executor.commit(
                    executor.next_sequence + lag, f"c{client}", timestamp, Operation("add", (1,))
                )
            else:
                # A state transfer jumps ahead and replaces every reply table
                # with the donor's, which need not extend this replica's.
                _, jump, replies = step
                executor.restore(
                    {"next_sequence": executor.next_sequence + jump, "state": 7, "replies": replies}
                )
        for cut, eager in taken:
            assert cut.snapshot() == eager
        assert executor.cut().snapshot() == executor.snapshot()

    def test_what_the_manager_holds_does_not_grow_with_executed_requests(self):
        def held_bytes(manager, executor, clients):
            """Bytes reachable from ``manager``, short of the executor's own reply tables."""
            stop = {id(executor.replies_to(client)) for client in clients}
            seen, stack, total = set(), [manager], 0
            while stack:
                obj = stack.pop()
                if id(obj) in seen or id(obj) in stop or isinstance(obj, (type, types.ModuleType)):
                    continue
                seen.add(id(obj))
                total += sys.getsizeof(obj)
                stack.extend(gc.get_referents(obj))
            return total

        clients = ["c0", "c1", "c2"]
        manager = CheckpointManager(period=4)
        executor = OrderedExecutor(Counter())
        executor.set_checkpoint_hook(
            4, lambda sequence: manager.record_local_checkpoint(sequence, "d", executor.cut())
        )
        held = []
        sequence = 0
        for checkpoints in (300, 600, 1200):  # every count past the small-int cache
            while manager.checkpoints_taken < checkpoints:
                sequence += 1
                executor.commit(sequence, clients[sequence % 3], sequence, Operation("add", (1,)))
            held.append(held_bytes(manager, executor, clients))
        assert held[0] == held[1] == held[2]
        assert len(manager.latest_snapshot()[1]["replies"]) == sequence


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


class TestBftCheckpointAtItsBoundary:
    """A PBFT checkpoint signs the state at its boundary (Castro & Liskov,
    OSDI '99), so every correct replica signs the same digest whatever order
    its slots committed in, and a commit quorum of them can match."""

    @staticmethod
    def commit(deployment, replica, sequence):
        """Commit ``sequence`` at ``replica`` through its handlers: the
        primary's pre-prepare, then a commit quorum of other replicas' votes."""
        keystore = deployment.keystore
        config = deployment.group().config
        primary = config.primary_of_view(0)
        client = deployment.clients[0].node_id
        operation = Operation("put", (f"k{sequence}", sequence))
        request = Request(operation=operation, timestamp=sequence, client_id=client)
        request.sign(keystore.signer_for(client))
        digest = request_digest(request)
        preprepare = PrePrepare(view=0, sequence=sequence, digest=digest, request=request, mode=0)
        replica.handle_message(primary, preprepare.sign(keystore.signer_for(primary)))
        voters = [each for each in config.replicas if each != replica.node_id]
        for voter in voters[: config.commit_quorum]:
            vote = Commit(view=0, sequence=sequence, digest=digest, replica_id=voter, mode=0)
            replica.handle_message(voter, vote.sign(keystore.signer_for(voter)))

    def test_two_commit_orders_sign_one_digest(self):
        deployment = build_pbft(checkpoint_period=2)
        config = deployment.group().config
        backups = [each for each in config.replicas if each != config.primary_of_view(0)]
        signed = {}
        for replica_id, order in zip(backups, ([1, 2, 3], [3, 1, 2])):
            replica = deployment.replicas[replica_id]
            sent = []
            replica.multicast = lambda targets, message, sent=sent: sent.append(message)
            for sequence in order:
                self.commit(deployment, replica, sequence)
            assert replica.last_executed == 3
            signed[replica_id] = [
                (message.sequence, message.state_digest)
                for message in sent
                if hasattr(message, "state_digest")
            ]
        first, second = signed.values()
        assert len(first) == 1 and first[0][0] == 2
        assert first == second


@pytest.mark.parametrize("mode_id", [0, 7, -1])
def test_a_checkpoint_naming_no_mode_is_counted_not_raised(mode_id):
    """A Byzantine public replica may sign any mode id into its checkpoint;
    a Peacock replica counts it toward the public quorum instead of failing."""
    deployment = build_seemore(mode=Mode.PEACOCK)
    config = deployment.group().config
    sender = config.public_replicas[0]
    receiver = deployment.replicas[config.public_replicas[1]]
    checkpoint = msgs.Checkpoint(
        sequence=128, state_digest="ab" * 32, replica_id=sender, mode=mode_id
    )
    receiver.handle_message(sender, checkpoint.sign(deployment.keystore.signer_for(sender)))
    assert receiver.checkpoints.vote_count(128, "ab" * 32) == 1
    assert receiver.checkpoints.stable_sequence == 0
