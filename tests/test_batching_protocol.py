"""Integration tests: batching and pipelining through the full protocol.

Covers the agreement path with batches in all three modes, per-request
reply fan-out, exactly-once execution, and — the delicate part — view
changes while a pipeline of batches is partially committed: the new view
must re-propose every uncommitted batch exactly once.
"""

import pytest

from repro.cluster import build_seemore, run_deployment
from repro.core import BatchPolicy, Mode
from repro.core import messages as msgs
from repro.faults import crash_primary
from repro.smr.ledger import assert_ledgers_consistent
from repro.smr.messages import Batch
from repro.smr.replica import NOOP_CLIENT, request_digest
from repro.smr.state_machine import Operation
from repro.workload import Workload

pytestmark = pytest.mark.integration

ALL_MODES = [Mode.LION, Mode.DOG, Mode.PEACOCK]

# Fast tier: exercise the full batched pipeline once (Lion); the other
# modes and the fault scenarios run with the slow tier / full suite.
MODES_LION_FAST = [
    Mode.LION,
    pytest.param(Mode.DOG, marks=pytest.mark.slow),
    pytest.param(Mode.PEACOCK, marks=pytest.mark.slow),
]

BATCHING = BatchPolicy(max_batch=8, linger=0.002)


def build(mode, policy=BATCHING, **kwargs):
    return build_seemore(
        crash_tolerance=1,
        byzantine_tolerance=1,
        mode=mode,
        workload=Workload.build("0/0"),
        num_clients=kwargs.pop("num_clients", 3),
        client_window=kwargs.pop("client_window", 4),
        batch_policy=policy,
        seed=kwargs.pop("seed", 11),
        client_timeout=0.1,
        **kwargs,
    )


def assert_exactly_once(deployment):
    """No correct replica executed any client request twice."""
    for replica in deployment.correct_replicas():
        keys = [
            (execution.client_id, execution.timestamp)
            for execution in replica.executor.executed
            if execution.client_id != NOOP_CLIENT
        ]
        assert len(keys) == len(set(keys)), (
            f"{replica.node_id} executed a request twice"
        )


def assert_no_client_holes(deployment):
    """No request was lost while later ones kept completing.

    With a pipelined window the run's cut-off leaves up to ``window``
    recently issued requests incomplete, so holes are tolerated only in the
    very tail; a *deep* hole means a request was dropped for good.
    """
    for client in deployment.clients:
        stamps = {record.timestamp for record in client.completed}
        if not stamps:
            continue
        top = max(stamps)
        missing = set(range(1, top + 1)) - stamps
        assert len(missing) <= client.window, (
            f"{client.node_id} lost {len(missing)} requests: {sorted(missing)[:10]}"
        )
        cutoff = top - 4 * client.window
        deep = [ts for ts in missing if ts <= cutoff]
        assert not deep, f"{client.node_id} has deep holes (lost requests): {deep[:10]}"


class TestBatchedNormalCase:
    @pytest.mark.parametrize("mode", MODES_LION_FAST)
    def test_batched_agreement_completes_and_stays_safe(self, mode):
        deployment = build(mode)
        deployment.start_clients()
        deployment.run(0.6)
        deployment.stop_clients()

        assert deployment.metrics.completed > 50
        assert_ledgers_consistent(deployment.group().correct_ledgers())
        assert_exactly_once(deployment)
        assert_no_client_holes(deployment)

    @pytest.mark.parametrize("mode", MODES_LION_FAST)
    def test_batches_actually_form(self, mode):
        deployment = build(mode)
        deployment.start_clients()
        deployment.run(0.6)
        deployment.stop_clients()
        deployment.collect_batch_sizes()

        summary = deployment.metrics.batch_summary()
        assert summary.batches > 0
        assert summary.maximum > 1, "with 12 outstanding requests batches must form"
        assert summary.requests >= deployment.metrics.completed

    @pytest.mark.slow
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_replies_fan_out_per_request(self, mode):
        """Every client request gets its own reply even when committed
        inside a batch."""
        deployment = build(mode)
        deployment.start_clients()
        deployment.run(0.6)
        deployment.stop_clients()

        for client in deployment.clients:
            assert client.completed_count > 10

    @pytest.mark.slow
    def test_unbatched_policy_unchanged_one_request_per_slot(self):
        deployment = build(Mode.LION, policy=BatchPolicy(), client_window=1)
        deployment.start_clients()
        deployment.run(0.3)
        deployment.stop_clients()

        primary = deployment.replicas[deployment.group().config.private_replicas[0]]
        assert primary.batcher.batches_proposed > 0
        assert primary.batcher.mean_batch_size() == 1.0
        for slot in (primary.slots.existing_slot(seq) for seq in primary.slots.sequences):
            if slot is not None and slot.request is not None:
                assert slot.request_count == 1


class TestLingerOnlyWhileArrivalsAreDue:
    """The primary holds an under-full batch only while the arrival gap it
    observes is below ``linger``.  A lone closed-loop client (window 1) sends
    its next request only after the last one completes, so a batch can never
    grow: before this rule every request paid the whole 2 ms linger (3.29 /
    3.35 / 3.57 ms mean against 1.28 / 1.35 / 1.57 unbatched).  Its own round
    trip is shorter than the linger, so the estimate hovers at the linger and
    some requests still wait it out, but on average less than half of it.
    Saturated runs batch exactly as before."""

    POLICY = BatchPolicy(16, 0.002)

    @staticmethod
    def run(mode, policy, client_window):
        deployment = build_seemore(
            mode=mode, num_clients=1, client_window=client_window, batch_policy=policy, seed=1
        )
        return run_deployment(deployment, duration=0.5, warmup=0.05)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_a_lone_client_pays_less_than_half_the_linger(self, mode):
        batched = self.run(mode, self.POLICY, client_window=1)
        unbatched = self.run(mode, BatchPolicy(), client_window=1)
        half_linger_ms = self.POLICY.linger * 1000 / 2
        assert batched.mean_latency_ms < unbatched.mean_latency_ms + half_linger_ms

    @pytest.mark.parametrize(
        "mode, completed", [(Mode.LION, 11104), (Mode.DOG, 10672), (Mode.PEACOCK, 9248)]
    )
    def test_a_saturating_client_commits_what_it_did_before(self, mode, completed):
        assert self.run(mode, self.POLICY, client_window=32).completed == completed


@pytest.mark.slow
class TestViewChangeWithInFlightBatches:
    @pytest.fixture(scope="class")
    def crashed_mid_pipeline(self):
        """A deployment per mode whose primary crashed with batches in flight.

        Both tests below only read the finished run, so each mode runs once.
        """
        runs = {}

        def run(mode):
            if mode not in runs:
                deployment = build(mode, num_clients=4, client_window=4)
                deployment.start_clients()
                deployment.run(0.25)
                crash_primary(deployment.group())
                deployment.run(1.2)
                deployment.stop_clients()
                runs[mode] = deployment
            return runs[mode]

        return run

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_primary_crash_mid_pipeline_recovers_exactly_once(self, mode, crashed_mid_pipeline):
        """Crash the primary while batches are in flight: the new view must
        recover every request without loss or double execution."""
        deployment = crashed_mid_pipeline(mode)

        completed_after = deployment.metrics.completed
        assert completed_after > 60, "progress must resume after the view change"
        views = {replica.view for replica in deployment.correct_replicas()}
        assert views == {max(views)} and max(views) >= 1
        assert_ledgers_consistent(deployment.group().correct_ledgers())
        assert_exactly_once(deployment)
        assert_no_client_holes(deployment)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_batches_survive_the_view_change_intact(self, mode, crashed_mid_pipeline):
        """Batched slots committed after the crash keep their multi-request
        payloads: the new view re-proposes whole batches, not fragments."""
        deployment = crashed_mid_pipeline(mode)

        batched_slots = 0
        for replica in deployment.correct_replicas():
            for sequence in replica.slots.sequences:
                slot = replica.slots.existing_slot(sequence)
                if slot is not None and slot.committed and slot.request_count > 1:
                    batched_slots += 1
        assert batched_slots > 0
        assert_ledgers_consistent(deployment.group().correct_ledgers())


class TestProposalGuard:
    def test_non_primary_refuses_to_propose(self):
        """A backup (or a just-demoted primary whose batcher pump fires)
        must never sign and send ordering messages."""
        deployment = build(Mode.LION)
        config = deployment.group().config
        backup = deployment.replicas[config.public_replicas[0]]
        request = make_signed_request(deployment, "guard-client", 1)
        assert not backup.is_primary()
        assert backup._propose_payload(request) is None
        assert backup.next_sequence == 1


def make_signed_request(deployment, client_id, timestamp):
    from repro.smr.messages import Request

    deployment.keystore.register(client_id)
    request = Request(
        operation=Operation("noop"), timestamp=timestamp, client_id=client_id
    )
    request.sign(deployment.keystore.signer_for(client_id))
    return request


class TestReassignmentAfterViewChange:
    def test_retransmission_of_reproposed_batch_request_gets_no_second_slot(self):
        """After a new view re-proposes an uncommitted batch, a client
        retransmission of a request inside it must not be assigned a second
        sequence number by the new primary (clear_assignments() runs before
        the re-proposal, so the slot fill must re-record the assignment)."""
        from repro.smr.messages import Request

        deployment = build(Mode.LION)
        config = deployment.group().config
        keystore = deployment.keystore

        client_id = "retrans-client"
        keystore.register(client_id)
        request = Request(
            operation=Operation("noop"), timestamp=1, client_id=client_id
        )
        request.sign(keystore.signer_for(client_id))
        batch = Batch(requests=[request])
        entry = msgs.PreparedEntry(
            sequence=1, view=0, digest=request_digest(batch), request=batch
        )

        new_primary_id = config.primary_of_view(1, Mode.LION)
        new_primary = deployment.replicas[new_primary_id]
        new_view = msgs.NewView(
            new_view=1,
            mode=int(Mode.LION),
            replica_id=new_primary_id,
            checkpoint_sequence=0,
            prepares=[entry],
        )
        new_view.sign(new_primary.signer)
        new_primary.view_changes.install(new_primary_id, new_view)
        assert new_primary.is_primary()
        sequences_before = new_primary.next_sequence

        # The client retransmits while the re-proposed slot is uncommitted.
        new_primary.on_request(client_id, request)
        assert new_primary.next_sequence == sequences_before, (
            "retransmitted request was assigned a second sequence number"
        )
        assert new_primary.batcher.queued == 0


class TestNewViewReproposesBatches:
    """Deterministic check: the collector's NEW-VIEW carries every prepared
    batch exactly once (per mode), alongside the existing no-op filling."""

    @staticmethod
    def _batch(client_base: str, size: int) -> Batch:
        from repro.smr.messages import Request

        return Batch(
            requests=[
                Request(
                    operation=Operation("noop"),
                    timestamp=index + 1,
                    client_id=f"{client_base}-{index}",
                    signed=False,
                )
                for index in range(size)
            ]
        )

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_new_view_contains_each_uncommitted_batch_once(self, mode):
        deployment = build(mode)
        config = deployment.group().config
        collector_id = (
            config.transferer_of_view(1)
            if mode is Mode.PEACOCK
            else config.primary_of_view(1, mode)
        )
        collector = deployment.replicas[collector_id]

        batch_a = self._batch("alpha", 3)
        batch_b = self._batch("beta", 2)
        entries = [
            msgs.PreparedEntry(
                sequence=1, view=0, digest=request_digest(batch_a), request=batch_a
            ),
            msgs.PreparedEntry(
                sequence=2, view=0, digest=request_digest(batch_b), request=batch_b
            ),
        ]

        def vc_from(replica_id):
            view_change = msgs.ViewChange(
                new_view=1,
                mode=int(mode),
                replica_id=replica_id,
                checkpoint_sequence=0,
                checkpoint_digest="",
                prepared=list(entries),
            )
            view_change.sign(deployment.replicas[replica_id].signer)
            return view_change

        senders = [
            replica_id
            for replica_id in (
                config.all_replicas if mode is Mode.LION else config.public_replicas
            )
            if replica_id != collector_id
        ]
        view_changes = [vc_from(sender) for sender in senders[:4]]
        new_view = collector.new_view_message(1, mode, view_changes)

        carried = new_view.prepares + new_view.commits
        digests = [entry.digest for entry in carried if entry.sequence in (1, 2)]
        assert sorted(digests) == sorted(
            [request_digest(batch_a), request_digest(batch_b)]
        ), "each uncommitted batch must appear exactly once in the new view"
        for entry in carried:
            if entry.sequence == 1:
                assert isinstance(entry.request, Batch) and len(entry.request) == 3
            if entry.sequence == 2:
                assert isinstance(entry.request, Batch) and len(entry.request) == 2
