"""Focused tests for view-change machinery details.

The integration suites already cover "primary crashes, system recovers";
these tests pin down the finer behaviours of Section 5's view-change
routines: who collects view changes in each mode, how the new view is
assembled, no-op filling, join-on-evidence, and state transfer for lagging
replicas.
"""

from typing import Any, Callable, NamedTuple, Tuple

import pytest

from repro.adaptive.evidence import EvidenceKind
from repro.baselines import messages as baseline_msgs
from repro.cluster import build_seemore, builder_for
from repro.core import Mode, SeeMoReConfig
from repro.core import messages as msgs
from repro.core.replica import SeeMoReReplica
from repro.crypto.digest import digest
from repro.faults import crash_primary
from repro.runtime.aio import decode_envelope, encode_envelope
from repro.smr.ledger import assert_ledgers_consistent
from repro.smr.replica import NOOP_CLIENT, ReplicaBase, noop_request, request_digest
from repro.smr.state_machine import Operation, TransactionalKeyValueStore
from repro.smr.view_change import ViewChangeManager
from repro.workload import Workload


def build(mode, **kwargs):
    return build_seemore(
        crash_tolerance=1,
        byzantine_tolerance=1,
        mode=mode,
        workload=Workload.build("0/0"),
        num_clients=kwargs.pop("num_clients", 2),
        seed=kwargs.pop("seed", 13),
        client_timeout=0.1,
        **kwargs,
    )


pytestmark = pytest.mark.integration


class TestCollectors:
    def test_lion_and_dog_collector_is_new_primary(self):
        config = SeeMoReConfig.build(1, 1)
        deployment = build(Mode.LION)
        replica = next(iter(deployment.replicas.values()))
        assert replica.view_collector(1, Mode.LION) == config.primary_of_view(1, Mode.LION)
        assert replica.view_collector(1, Mode.DOG) == config.primary_of_view(1, Mode.DOG)

    def test_peacock_collector_is_trusted_transferer(self):
        config = SeeMoReConfig.build(1, 1)
        deployment = build(Mode.PEACOCK)
        replica = next(iter(deployment.replicas.values()))
        collector = replica.view_collector(1, Mode.PEACOCK)
        assert collector == config.transferer_of_view(1)
        assert config.is_trusted(collector)
        # ... even though the new primary itself is untrusted.
        assert not config.is_trusted(config.primary_of_view(1, Mode.PEACOCK))


class TestNoopFilling:
    def test_noop_request_is_deterministic_per_sequence(self):
        assert request_digest(noop_request(7)) == request_digest(noop_request(7))
        assert request_digest(noop_request(7)) != request_digest(noop_request(8))
        assert noop_request(7).client_id == NOOP_CLIENT

    def test_new_view_fills_sequence_holes_with_noops(self):
        deployment = build(Mode.LION)
        config = deployment.group().config
        collector_id = config.primary_of_view(1, Mode.LION)
        collector = deployment.replicas[collector_id]
        manager = collector.view_changes

        # Hand-craft view-change messages that have prepared sequence 1 and 3
        # but nothing for 2: the collector must fill 2 with a no-op.
        def vc_from(replica_id, sequences):
            replica = deployment.replicas[replica_id]
            prepared = []
            for sequence in sequences:
                filler = noop_request(1000 + sequence)  # stand-in client request
                prepared.append(
                    msgs.PreparedEntry(
                        sequence=sequence,
                        view=0,
                        digest=request_digest(filler),
                        request=filler,
                    )
                )
            view_change = msgs.ViewChange(
                new_view=1,
                mode=int(Mode.LION),
                replica_id=replica_id,
                checkpoint_sequence=0,
                checkpoint_digest="",
                prepared=prepared,
            )
            view_change.sign(replica.signer)
            return view_change

        senders = [r for r in config.all_replicas if r != collector_id]
        for sender in senders[:4]:
            manager.on_view_change(sender, vc_from(sender, [1, 3]))

        assert collector.view == 1
        new_view_sequences = sorted(
            slot_sequence for slot_sequence in collector.slots.sequences if slot_sequence <= 3
        )
        assert 2 in new_view_sequences, "the hole at sequence 2 must exist as a slot"

    @pytest.mark.slow
    def test_noop_commits_do_not_reach_clients(self):
        deployment = build(Mode.LION)
        simulator = deployment.simulator
        deployment.start_clients()
        simulator.run(until=0.15)
        crash_primary(deployment.group())
        simulator.run(until=1.0)
        deployment.stop_clients()
        # No client ever receives a reply for the no-op client id.
        for client in deployment.clients:
            assert all(record.timestamp > 0 for record in client.completed)
        assert_ledgers_consistent(deployment.group().correct_ledgers())


class TestJoinAndEscalation:
    @pytest.mark.slow
    def test_replicas_join_view_change_on_quorum_of_evidence(self):
        deployment = build(Mode.LION)
        config = deployment.group().config
        simulator = deployment.simulator
        deployment.start_clients()
        simulator.run(until=0.15)
        crash_primary(deployment.group())
        simulator.run(until=1.0)
        deployment.stop_clients()
        # Every correct replica ends in the same (new) view even though only
        # some of them had an expired timer.
        views = {replica.view for replica in deployment.correct_replicas()}
        assert len(views) == 1
        assert views.pop() >= 1

    @pytest.mark.slow
    def test_consecutive_primary_crashes_escalate_views(self):
        deployment = build(Mode.LION, num_clients=3)
        config = deployment.group().config
        simulator = deployment.simulator
        deployment.start_clients()
        simulator.run(until=0.15)
        # Crash the current primary and the next one: the group must reach a
        # view whose primary is a public... no — Lion primaries are always
        # private, and S=2, so view 2 wraps back to the first (crashed)
        # replica; with c=1 only one crash is tolerated, so crash only the
        # current primary here and the *next* primary must take over.
        first = crash_primary(deployment.group())
        simulator.run(until=1.2)
        deployment.stop_clients()
        surviving_primary = config.primary_of_view(
            max(r.view for r in deployment.correct_replicas()), Mode.LION
        )
        assert surviving_primary != first
        assert deployment.metrics.completed > 20
        assert_ledgers_consistent(deployment.group().correct_ledgers())


PROTOCOLS = ["seemore-lion", "cft", "bft", "s-upright"]


def build_protocol(protocol):
    """``protocol`` at c = m = 1, the deployment every view-change vote below targets."""
    return builder_for(protocol)(
        crash_tolerance=1, byzantine_tolerance=1, num_clients=2, seed=13, client_timeout=0.1
    )


def vote(deployment, sender, target_view, entries, replica_id=None):
    """``sender``'s signed view-change message for ``target_view`` reporting ``entries``
    prepared, naming ``replica_id`` (``sender`` unless forged) as its author."""
    replica = deployment.replicas[sender]
    if isinstance(replica, SeeMoReReplica):
        message = msgs.ViewChange(
            new_view=target_view,
            mode=int(Mode.LION),
            replica_id=replica_id or sender,
            checkpoint_sequence=0,
            checkpoint_digest="",
            prepared=list(entries),
        )
        return message.sign(replica.signer)
    signed = replica.config.messages_are_signed
    message = baseline_msgs.BaselineViewChange(
        new_view=target_view,
        replica_id=replica_id or sender,
        checkpoint_sequence=0,
        prepared=list(entries),
        signed=signed,
    )
    return message.sign(replica.signer) if signed else message


def mode_id(replica):
    """The mode a vote above names: Lion for SeeMoRe, the one mode (0) of a baseline."""
    return int(Mode.LION) if isinstance(replica, SeeMoReReplica) else 0


def collector_of(deployment, target_view):
    replica = next(iter(deployment.replicas.values()))
    return replica.view_collector(target_view, mode_id(replica))


class TestNewViewReconciliation:
    """The Section 5.1 rule, on every protocol: conflicting prepared entries
    for one sequence are resolved in favour of the entry prepared in the
    *highest* view, whatever order the votes arrive in; vote count only
    breaks ties.  (A stale assignment from a deposed primary can be reported
    by more replicas than the assignment a later view superseded it with.)"""

    @pytest.mark.parametrize("order", ["stale-first", "fresh-first"])
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_highest_view_entry_beats_more_votes(self, protocol, order):
        deployment = build_protocol(protocol)
        target_view = 3
        collector_id = collector_of(deployment, target_view)
        collector = deployment.replicas[collector_id]

        stale_request = noop_request(1001)
        fresh_request = noop_request(1002)
        stale_digest = request_digest(stale_request)
        fresh_digest = request_digest(fresh_request)
        stale = msgs.PreparedEntry(sequence=1, view=0, digest=stale_digest, request=stale_request)
        fresh = msgs.PreparedEntry(sequence=1, view=2, digest=fresh_digest, request=fresh_request)

        # The collector's own vote completes the quorum.  One replica saw the
        # view-2 assignment; the others still report the view-0 one (at least
        # as many votes, staler view).
        quorum = collector.view_change_quorum(mode_id(collector))
        senders = [r for r in deployment.replicas if r != collector_id][: quorum - 1]
        entries = {sender: [stale] for sender in senders[1:]}
        entries[senders[0]] = [fresh]
        if order == "stale-first":
            senders.reverse()
        for sender in senders:
            collector.handle_message(
                sender, vote(deployment, sender, target_view, entries[sender])
            )

        assert collector.view == target_view, "the new view must have been installed"
        assert collector.slots.slot(1).digest == fresh_digest, (
            "the entry prepared in the highest view must win, not the one "
            "with the most votes or the one seen first"
        )

    def test_view_change_state_is_pruned_after_install(self):
        deployment = build(Mode.LION)
        config = deployment.group().config
        target_view = 3
        collector_id = config.primary_of_view(target_view, Mode.LION)
        collector = deployment.replicas[collector_id]
        manager = collector.view_changes

        senders = [r for r in config.all_replicas if r != collector_id]
        for sender in senders[:3]:
            manager.on_view_change(sender, vote(deployment, sender, target_view, []))

        assert collector.view == target_view
        assert all(key[0] > target_view for key in manager._store), (
            "view-change messages for installed views must be garbage-collected"
        )
        assert all(key[0] > target_view for key in manager._new_views_sent)

    @pytest.mark.slow
    def test_store_does_not_grow_across_repeated_view_changes(self):
        deployment = build(Mode.LION, num_clients=2)
        simulator = deployment.simulator
        deployment.start_clients()
        simulator.run(until=0.15)
        crash_primary(deployment.group())
        simulator.run(until=1.0)
        deployment.stop_clients()
        for replica in deployment.correct_replicas():
            manager = replica.view_changes
            assert manager.view_changes_completed >= 1
            stale = [key for key in manager._store if key[0] <= replica.view]
            assert stale == [], f"{replica.node_id} kept view-change state for {stale}"


@pytest.mark.parametrize("protocol", PROTOCOLS)
class TestAVoteCountsForItsChannelSender:
    """A view-change message naming someone other than its channel sender
    counts for nobody: not toward the collector's quorum, and not toward the
    suspicions that make a replica join.  (Channels are authenticated, so
    ``src`` is who sent it; a Byzantine replica must not vote twice, or in
    the name of a replica that stays silent.)"""

    target_view = 3

    def cast(self, deployment):
        collector_id = collector_of(deployment, self.target_view)
        forger, named, *honest = [r for r in deployment.replicas if r != collector_id]
        return deployment.replicas[collector_id], forger, named, honest

    def test_a_mis_attributed_vote_does_not_complete_a_quorum(self, protocol):
        deployment = build_protocol(protocol)
        collector, forger, named, honest = self.cast(deployment)
        # With the collector's own vote, these fall one short of a quorum.
        short = honest[: collector.view_change_quorum(mode_id(collector)) - 2]
        for sender in short:
            collector.handle_message(sender, vote(deployment, sender, self.target_view, []))
        forged = vote(deployment, forger, self.target_view, [], replica_id=named)
        collector.handle_message(forger, forged)
        assert collector.view == 0, "a vote naming another replica must not count"
        collector.handle_message(forger, vote(deployment, forger, self.target_view, []))
        assert collector.view == self.target_view

    def test_a_mis_attributed_vote_does_not_make_a_replica_join(self, protocol):
        deployment = build_protocol(protocol)
        collector, forger, named, honest = self.cast(deployment)
        bystander_id, *others = honest
        bystander = deployment.replicas[bystander_id]
        for sender in others[: bystander.join_threshold() - 1]:
            bystander.handle_message(sender, vote(deployment, sender, self.target_view, []))
        forged = vote(deployment, forger, self.target_view, [], replica_id=named)
        bystander.handle_message(forger, forged)
        assert not bystander.in_view_change, "a vote naming another replica must not count"
        bystander.handle_message(forger, vote(deployment, forger, self.target_view, []))
        assert bystander.in_view_change


class TestStateTransfer:
    @pytest.mark.slow
    def test_lagging_replica_catches_up_via_state_transfer(self):
        deployment = build(Mode.LION, num_clients=4, checkpoint_period=32)
        config = deployment.group().config
        simulator = deployment.simulator
        lagger_id = config.public_replicas[0]
        lagger = deployment.replicas[lagger_id]

        deployment.start_clients()
        simulator.run(until=0.1)
        # Simulate a long outage: the replica misses a stretch of commits.
        lagger.crash()
        simulator.run(until=0.5)
        lagger.recover()
        simulator.run(until=1.2)
        deployment.stop_clients()

        frontier = max(replica.last_executed for replica in deployment.correct_replicas())
        assert frontier > 0
        assert lagger.last_executed >= frontier - 2 * config.checkpoint_period, (
            "the recovered replica should have caught up via state transfer"
        )
        assert lagger.state_transfers_completed >= 1
        assert_ledgers_consistent(deployment.group().correct_ledgers())


def signed_response(deployment, sender, checkpoint_sequence, state_digest, snapshot):
    response = msgs.StateTransferResponse(
        replica_id=sender,
        checkpoint_sequence=checkpoint_sequence,
        state_digest=state_digest,
        snapshot=snapshot,
    )
    return response.sign(deployment.keystore.signer_for(sender))


class Cast(NamedTuple):
    """Who plays what in a state-transfer check on one protocol.

    ``victim`` holds a stable checkpoint; ``liars`` are two replicas whose
    response alone is not adopted; ``lagger`` sleeps through the run, and
    the responses of ``donors`` (one trusted replica in SeeMoRe, f+1 in
    bft) are what it takes to adopt a snapshot.
    """

    build: Callable[[], Any]
    victim: str
    liars: Tuple[str, str]
    lagger: str
    donors: Tuple[str, ...]


CASTS = {
    "peacock": Cast(
        lambda: build(Mode.PEACOCK, seed=3, checkpoint_period=8),
        victim="private-1",
        liars=("public-1", "public-2"),
        lagger="public-3",
        donors=("private-0",),
    ),
    "bft": Cast(
        lambda: builder_for("bft")(num_clients=2, seed=3, client_timeout=0.1, checkpoint_period=8),
        victim="bft-1",
        liars=("bft-2", "bft-3"),
        lagger="bft-3",
        donors=("bft-0", "bft-2"),
    ),
}


@pytest.fixture(params=sorted(CASTS))
def cast(request):
    return CASTS[request.param]


class TestStateTransferSnapshotIsChecked:
    """Only the checkpoint sequence and state digest of a response are signed;
    the snapshot beside them must be the state they name before anyone's
    trust (a trusted sender, the victim's own stable checkpoint, matching
    votes: m+1 untrusted in SeeMoRe, f+1 in bft) is spent on it."""

    def with_stable_checkpoint(self, cast):
        deployment = cast.build()
        deployment.start_clients()
        deployment.run(0.25)
        deployment.stop_clients()
        victim = deployment.replicas[cast.victim]
        assert victim.checkpoints.stable_sequence >= 8
        return deployment, victim

    def test_a_forged_snapshot_beside_an_honestly_signed_frame_is_ignored(self, cast):
        deployment, victim = self.with_stable_checkpoint(cast)
        liar = cast.liars[1]
        executed, state = victim.last_executed, victim.executor.state_machine.snapshot()
        forged = {
            "next_sequence": executed + 1000,
            "state": {"forged": True},
            "replies": {},
        }
        # Sequence and digest of a stable checkpoint are public knowledge, so
        # one replica can name the victim's own and pass the stable-checkpoint
        # branch with no quorum at all.
        response = signed_response(
            deployment,
            liar,
            victim.checkpoints.stable_sequence,
            victim.checkpoints.stable_digest,
            forged,
        )
        victim.handle_message(liar, response)

        assert victim.last_executed == executed
        assert victim.executor.state_machine.snapshot() == state
        assert victim.state_transfers_completed == 0
        assert [
            (record.kind, record.suspect) for record in victim.evidence.records[-1:]
        ] == [(EvidenceKind.INVALID_SIGNATURE, liar)]

    def test_matching_votes_cannot_carry_a_different_snapshot(self, cast):
        """Untrusted votes are counted on ``(sequence, digest)``: the last
        responder's snapshot must be the state that digest names too."""
        deployment, victim = self.with_stable_checkpoint(cast)
        executed = victim.last_executed
        target = executed + 8
        honest = {"next_sequence": target + 1, "state": {"k": "v"}, "replies": {}}
        state_digest = digest({"next_sequence": target + 1, "state": {"k": "v"}})
        forged = dict(honest, state={"forged": True})
        first, second = cast.liars
        victim.handle_message(
            first, signed_response(deployment, first, target, state_digest, honest)
        )
        victim.handle_message(
            second, signed_response(deployment, second, target, state_digest, forged)
        )
        assert victim.last_executed == executed
        assert victim.state_transfers_completed == 0

    @pytest.mark.parametrize("replies", [{7: {"ok": True}}, {("client-0", 1, 2): None}])
    def test_replies_not_keyed_by_client_and_timestamp_are_a_mismatch(self, cast, replies):
        """Replies are restored into per-client tables, so a key that is not
        ``(client_id, timestamp)`` is refused before anything is adopted."""
        deployment, victim = self.with_stable_checkpoint(cast)
        executed = victim.last_executed
        target = executed + 8
        snapshot = {"next_sequence": target + 1, "state": {"k": "v"}, "replies": replies}
        state_digest = digest({"next_sequence": target + 1, "state": {"k": "v"}})
        for donor in cast.donors:
            victim.handle_message(
                donor, signed_response(deployment, donor, target, state_digest, snapshot)
            )
        assert victim.last_executed == executed
        assert victim.state_transfers_completed == 0
        assert [record.kind for record in victim.evidence.records[-len(cast.donors) :]] == [
            EvidenceKind.INVALID_SIGNATURE
        ] * len(cast.donors)

    @pytest.mark.parametrize("shape", [None, [], {"next_sequence": "9"}, {"next_sequence": 9}])
    def test_a_malformed_snapshot_is_a_mismatch_not_a_crash(self, cast, shape):
        deployment, victim = self.with_stable_checkpoint(cast)
        executed = victim.last_executed
        liar = cast.liars[1]
        response = signed_response(
            deployment,
            liar,
            victim.checkpoints.stable_sequence,
            victim.checkpoints.stable_digest,
            {},
        )
        response.__dict__["snapshot"] = shape  # what a hostile peer may put beside the frame
        victim.handle_message(liar, response)
        assert victim.last_executed == executed

    def test_an_honest_response_still_restores(self, cast):
        """One trusted response in SeeMoRe; in bft one is not enough and f+1 are."""
        deployment = cast.build()
        lagger = deployment.replicas[cast.lagger]
        lagger.crash()
        deployment.start_clients()
        deployment.run(0.25)
        deployment.stop_clients()
        lagger.recover()
        assert lagger.last_executed == 0

        donors = [deployment.replicas[donor] for donor in cast.donors]
        checkpoint_sequence, snapshot = donors[0].checkpoints.latest_snapshot()
        assert checkpoint_sequence >= 8
        state_digest = digest(
            {"next_sequence": snapshot["next_sequence"], "state": snapshot["state"]}
        )
        for donor in donors:
            assert lagger.state_transfers_completed == 0
            assert donor.checkpoints.latest_snapshot() == (checkpoint_sequence, snapshot)
            lagger.handle_message(
                donor.node_id,
                signed_response(
                    deployment, donor.node_id, checkpoint_sequence, state_digest, snapshot
                ),
            )
        assert lagger.last_executed == checkpoint_sequence
        assert lagger.state_transfers_completed == 1
        assert lagger.executor.state_machine.snapshot() == snapshot["state"]

    def test_a_snapshot_that_crossed_the_wire_digests_to_what_its_sender_signed(self):
        """Tuples, nested dicts and tuple-keyed replies survive ``pack_value`` /
        ``read_value`` with the digest the sender computed before encoding."""
        store = TransactionalKeyValueStore()
        store.apply(Operation("put", ("k", {"nested": (1, [2, {"deep": None}])})))
        store.apply(Operation("txn_prepare", ("t1", (("put", "a", 1), ("put", "b", (2, 3))))))
        snapshot = {
            "next_sequence": 9,
            "state": store.snapshot(),
            "replies": {("client-0", 7): {"ok": True, "value": (1, 2)}},
        }
        deployment = build(Mode.LION)
        state_digest = digest({"next_sequence": 9, "state": snapshot["state"]})
        sent = signed_response(deployment, "private-0", 8, state_digest, snapshot)
        received = decode_envelope(encode_envelope(sent))
        assert received is not sent and received.snapshot == snapshot
        assert ReplicaBase._snapshot_is_what_was_signed(received)
        received.snapshot["state"]["data"]["k"] = "tampered"
        assert not ReplicaBase._snapshot_is_what_was_signed(received)


def test_a_cft_replica_adopts_one_honest_response():
    """Nobody lies in the crash model: a Paxos replica, which keeps no
    checkpoints, answers with its executor's snapshot, and the lagger adopts
    that one response."""
    deployment = builder_for("cft")(num_clients=2, seed=3, client_timeout=0.1)
    lagger, donor = deployment.replicas["cft-2"], deployment.replicas["cft-0"]
    lagger.crash()
    deployment.start_clients()
    deployment.run(0.25)
    deployment.stop_clients()
    lagger.recover()
    assert lagger.last_executed == 0 < donor.last_executed
    assert lagger.state_transfer_quorum(donor.node_id) == 1

    lagger.request_state_transfer(donor.node_id)
    deployment.run(0.05)
    assert lagger.state_transfers_completed == 1
    assert lagger.last_executed == donor.last_executed
    assert lagger.executor.state_machine.snapshot() == donor.executor.state_machine.snapshot()


class TestNewViewTimer:
    """A new view has twice the request timeout to be installed before the
    next primary is suspected too, whatever the request timeout is."""

    @pytest.mark.parametrize("protocol", ["seemore-lion", "cft", "bft"])
    def test_a_silent_collector_is_given_twice_the_request_timeout(self, protocol):
        deployment = builder_for(protocol)(request_timeout=0.5)
        replicas = deployment.replicas
        mode = deployment.group().mode or 0
        collector = next(iter(replicas.values())).view_collector(1, mode)
        others = set(replicas) - {collector}
        deployment.network.conditions.partition({collector}, others)
        for replica_id in sorted(others):
            replicas[replica_id].view_changes.start()

        def highest_view():
            return max(
                max(replica.view, replica.view_changes.active_target or 0)
                for replica in replicas.values()
            )

        deployment.run(0.9)
        assert highest_view() == 1
        deployment.run(0.2)
        assert highest_view() == 2


def assert_roles_match_the_config(replica):
    """Every role a replica installed equals what its configuration says for its view."""
    config, node = replica.config, replica.node_id
    if isinstance(replica, SeeMoReReplica):
        members, mode = config.all_replicas, replica.mode
        primary = config.primary_of_view(replica.view, mode)
        proxies = config.proxies_of_view(replica.view, mode)
        assert replica.other_proxies() == [proxy for proxy in proxies if proxy != node]
        assert replica.inform_targets() == [
            member for member in members if member not in proxies and member != node
        ]
    else:
        members, mode = config.replicas, 0
        primary, proxies = config.primary_of_view(replica.view), []
    where = (node, replica.view, int(mode))
    assert replica.current_primary() == primary, where
    assert replica.mode_id == int(mode), where
    assert replica.is_proxy() == (node in proxies), where
    assert [member for member in members if replica.is_current_proxy(member)] == proxies, where


class TestRolesFollowTheInstalledView:
    """Roles are installed per view and mode, not derived per message: after every
    installed view and every mode switch each replica's installed roles must equal
    the configuration's answer for its new view."""

    @pytest.fixture
    def checked(self, monkeypatch):
        """Check every replica's roles after each view install and mode switch."""
        installs = []
        install, set_mode = ViewChangeManager.install, SeeMoReReplica.set_mode

        def checked_install(manager, src, message):
            install(manager, src, message)
            assert_roles_match_the_config(manager.replica)
            installs.append((manager.replica.view, manager.replica.mode_id))

        def checked_set_mode(replica, mode):
            set_mode(replica, mode)
            assert_roles_match_the_config(replica)

        monkeypatch.setattr(ViewChangeManager, "install", checked_install)
        monkeypatch.setattr(SeeMoReReplica, "set_mode", checked_set_mode)
        return installs

    def test_lion_to_dog_to_peacock(self, checked):
        deployment = build(Mode.LION)
        config = deployment.group().config
        simulator = deployment.simulator
        deployment.start_clients()
        simulator.run(until=0.1)
        crash_primary(deployment.group())  # a same-mode view change in Lion
        simulator.run(until=0.4)
        initiator = deployment.replicas[config.private_replicas[1]]
        initiator.request_mode_switch(Mode.DOG)
        simulator.run(until=0.7)
        initiator.request_mode_switch(Mode.PEACOCK)
        simulator.run(until=1.0)
        survivors = deployment.correct_replicas()
        # Views 2 and 4 are collected by the crashed replica: they time out, never installed.
        assert set(checked) == {(1, Mode.LION), (3, Mode.DOG), (5, Mode.PEACOCK)}
        assert {(replica.view, replica.mode) for replica in survivors} == {(5, Mode.PEACOCK)}
        for replica in survivors:
            assert_roles_match_the_config(replica)

    @pytest.mark.parametrize("protocol", ["cft", "bft", "s-upright"])
    def test_a_baseline_primary_crash(self, checked, protocol):
        deployment = builder_for(protocol)(num_clients=1, seed=3)
        for replica in deployment.replicas.values():
            assert_roles_match_the_config(replica)
        deployment.start_clients()
        deployment.simulator.run(until=0.05)
        crash_primary(deployment.group())
        deployment.simulator.run(until=0.3)
        survivors = deployment.correct_replicas()
        assert {replica.view for replica in survivors} == {1}
        assert len(checked) == len(survivors)
