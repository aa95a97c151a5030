"""The leader agreement, written once in ``repro.smr.leader``, on each protocol that runs it.

Lion runs it signed at 2m+c+1, the cft baseline unsigned (mode 0) at f+1.
Each test drives a backup or the leader by hand -- messages go straight into
``handle_message``, the simulator never runs -- and records what they send.
"""

from dataclasses import dataclass
from typing import Any, Callable, List, Tuple

import pytest

from repro.adaptive.evidence import EvidenceKind
from repro.cluster import build_paxos, build_seemore
from repro.core import Mode
from repro.faults.byzantine import tampered_payload
from repro.smr.messages import Accept, Commit, Prepare, Reply, Request
from repro.smr.replica import request_digest
from repro.smr.state_machine import Operation


@dataclass
class Cast:
    """One protocol's deployment, seen from its leader and one backup in view 0."""

    deployment: Any
    mode: int  # the mode id the agreement's messages carry
    signs: bool  # whether the leader signs its prepare and commit
    leader: Any
    backup: Any
    others: List[str]  # replicas other than the leader and the backup
    quorum: int
    propose: Callable[[Request], None]  # the leader orders a request
    request: Request
    sent: List[Tuple[str, Any, Any]]  # (sender, destination or destinations, message)

    @property
    def digest(self) -> str:
        return request_digest(self.request)

    def deliver(self, replica: Any, sender: str, message: Any) -> None:
        if self.signs and message.signed:
            message.sign(self.deployment.keystore.signer_for(sender))
        replica.handle_message(sender, message)

    def prepare(self, **fields: Any) -> Prepare:
        values = dict(
            view=0, sequence=1, digest=self.digest, request=self.request, mode=self.mode,
            signed=self.signs,
        )
        values.update(fields)
        return Prepare(**values)

    def accept(self, voter: str, **fields: Any) -> Accept:
        values = dict(
            view=0, sequence=1, digest=self.digest, replica_id=voter, mode=self.mode, signed=False
        )
        values.update(fields)
        return Accept(**values)

    def commit(self, **fields: Any) -> Commit:
        values = dict(
            view=0, sequence=1, digest=self.digest, replica_id=self.leader.node_id,
            mode=self.mode, request=self.request, signed=self.signs,
        )
        values.update(fields)
        return Commit(**values)

    def sent_by(self, replica: Any, kind: type) -> List[Tuple[Any, Any]]:
        return [
            (dst, message)
            for sender, dst, message in self.sent
            if sender == replica.node_id and type(message) is kind
        ]

    def slot_of(self, replica: Any):
        return replica.slots.slot(1)

    def evidence(self, replica: Any, kind: EvidenceKind) -> List[Any]:
        return [record for record in replica.evidence.records if record.kind is kind]


def _cast(
    deployment: Any, mode: int, signs: bool, quorum: int, propose: Callable[[Any, Request], None]
) -> Cast:
    replicas = deployment.replicas
    leader = replicas[next(iter(replicas.values())).current_primary()]
    backup = next(each for each in replicas.values() if each is not leader)
    client = deployment.clients[0].node_id
    request = Request(operation=Operation("put", ("k", 1)), timestamp=1, client_id=client)
    request.sign(deployment.keystore.signer_for(client))
    sent: List[Tuple[str, Any, Any]] = []
    for replica in (leader, backup):
        name = replica.node_id
        replica.multicast = lambda to, message, name=name: sent.append((name, list(to), message))
        replica.send = lambda to, message, name=name: sent.append((name, to, message))
    return Cast(
        deployment=deployment,
        mode=mode,
        signs=signs,
        leader=leader,
        backup=backup,
        others=[each for each in replicas if each not in (leader.node_id, backup.node_id)],
        quorum=quorum,
        propose=lambda payload: propose(leader, payload),
        request=request,
        sent=sent,
    )


def _lion() -> Cast:
    deployment = build_seemore(mode=Mode.LION, num_clients=1)
    quorum = deployment.group().config.accept_quorum(Mode.LION)

    def propose(leader, payload):
        leader._propose_payload(payload)

    return _cast(deployment, int(Mode.LION), True, quorum, propose)


def _cft() -> Cast:
    deployment = build_paxos(crash_tolerance=1, byzantine_tolerance=1, num_clients=1)
    quorum = deployment.group().config.agreement_quorum
    return _cast(deployment, 0, False, quorum, lambda leader, payload: leader.order(payload))


@pytest.fixture(params=[_lion, _cft], ids=["lion", "cft"])
def cast(request) -> Cast:
    return request.param()


def test_every_cast_has_room_for_the_quorum(cast):
    assert 2 < cast.quorum <= 1 + len(cast.others)


class TestPrepareAdmission:
    def test_an_admitted_prepare_fills_the_slot_and_sends_one_unsigned_accept_to_the_leader(
        self, cast
    ):
        cast.deliver(cast.backup, cast.leader.node_id, cast.prepare())
        assert cast.slot_of(cast.backup).digest == cast.digest
        assert cast.slot_of(cast.backup).request is cast.request
        [(destination, accept)] = cast.sent_by(cast.backup, Accept)
        assert destination == cast.leader.node_id
        assert (accept.view, accept.sequence, accept.digest, accept.mode) == (
            0, 1, cast.digest, cast.mode,
        )
        assert accept.replica_id == cast.backup.node_id
        assert not accept.signed and accept.signature is None
        assert cast.backup.view_changes._request_timer.active

    def test_a_prepare_from_a_backup_is_refused(self, cast):
        cast.deliver(cast.backup, cast.others[0], cast.prepare())
        assert cast.slot_of(cast.backup).digest is None and cast.sent == []

    def test_a_prepare_whose_digest_does_not_match_its_payload_is_refused(self, cast):
        twisted = request_digest(tampered_payload(cast.request))
        cast.deliver(cast.backup, cast.leader.node_id, cast.prepare(digest=twisted))
        assert cast.slot_of(cast.backup).digest is None and cast.sent == []

    def test_a_prepare_for_another_view_is_refused(self, cast):
        cast.deliver(cast.backup, cast.leader.node_id, cast.prepare(view=1))
        assert cast.slot_of(cast.backup).digest is None and cast.sent == []

    def test_a_prepare_of_another_mode_is_refused(self, cast):
        cast.deliver(cast.backup, cast.leader.node_id, cast.prepare(mode=cast.mode + 1))
        assert cast.slot_of(cast.backup).digest is None and cast.sent == []

    def test_the_leaders_prepare_replaces_stale_content(self, cast):
        stale = tampered_payload(cast.request)
        cast.backup.fill_slot(1, request_digest(stale), stale, None)
        cast.deliver(cast.backup, cast.leader.node_id, cast.prepare())
        assert cast.slot_of(cast.backup).digest == cast.digest
        assert len(cast.sent_by(cast.backup, Accept)) == 1


def test_lions_prepare_is_signed_and_must_verify():
    cast = _lion()
    forged = cast.prepare()
    forged.sign(cast.deployment.keystore.signer_for(cast.others[0]))
    cast.backup.handle_message(cast.leader.node_id, forged)
    assert cast.slot_of(cast.backup).digest is None and cast.sent_by(cast.backup, Accept) == []
    [record] = cast.evidence(cast.backup, EvidenceKind.INVALID_SIGNATURE)
    assert record.suspect == cast.leader.node_id


def test_lions_prepare_must_fall_in_the_watermark_window():
    cast = _lion()
    beyond = cast.backup.watermark_window + 1
    cast.deliver(cast.backup, cast.leader.node_id, cast.prepare(sequence=beyond))
    assert cast.backup.slots.existing_slot(beyond) is None and cast.sent == []


class TestTheLeadersAcceptCount:
    def test_the_proposal_is_the_leaders_own_accept(self, cast):
        cast.propose(cast.request)
        assert cast.slot_of(cast.leader).voters("accept") == [cast.leader.node_id]
        [(destinations, prepare)] = cast.sent_by(cast.leader, Prepare)
        assert sorted(destinations) == sorted([cast.backup.node_id, *cast.others])
        assert (prepare.mode, prepare.signed) == (cast.mode, cast.signs)
        assert (prepare.signature is not None) is cast.signs

    def test_the_quorum_sends_exactly_one_commit_carrying_the_payload_and_replies(self, cast):
        cast.propose(cast.request)
        voters = [cast.backup.node_id, *cast.others][: cast.quorum - 1]
        for voter in voters[:-1]:
            cast.deliver(cast.leader, voter, cast.accept(voter))
        assert cast.sent_by(cast.leader, Commit) == [] and not cast.slot_of(cast.leader).committed
        cast.deliver(cast.leader, voters[-1], cast.accept(voters[-1]))
        [(destinations, commit)] = cast.sent_by(cast.leader, Commit)
        assert sorted(destinations) == sorted([cast.backup.node_id, *cast.others])
        assert (commit.view, commit.sequence, commit.digest, commit.mode) == (
            0, 1, cast.digest, cast.mode,
        )
        assert commit.request is cast.request
        assert commit.signed is cast.signs
        assert (commit.signature is not None) is cast.signs
        assert cast.slot_of(cast.leader).committed
        assert cast.leader.ledger.committed_sequences == [1]
        assert [dst for dst, _ in cast.sent_by(cast.leader, Reply)] == [cast.request.client_id]

        late = [cast.backup.node_id, *cast.others][cast.quorum - 1]
        cast.deliver(cast.leader, late, cast.accept(late))
        assert len(cast.sent_by(cast.leader, Commit)) == 1

    def test_a_repeated_accept_counts_once(self, cast):
        cast.propose(cast.request)
        voter = cast.backup.node_id
        for _ in range(cast.quorum):
            cast.deliver(cast.leader, voter, cast.accept(voter))
        assert cast.slot_of(cast.leader).vote_count("accept") == 2
        assert cast.sent_by(cast.leader, Commit) == []

    def test_a_conflicting_accept_is_evidence_against_its_sender_and_no_vote(self, cast):
        cast.propose(cast.request)
        voter = cast.backup.node_id
        twisted = request_digest(tampered_payload(cast.request))
        cast.deliver(cast.leader, voter, cast.accept(voter, digest=twisted))
        assert cast.slot_of(cast.leader).voters("accept") == [cast.leader.node_id]
        [record] = cast.evidence(cast.leader, EvidenceKind.CONFLICTING_VOTE)
        assert record.suspect == voter

    def test_an_accept_for_another_view_or_before_a_proposal_does_not_count(self, cast):
        voter = cast.backup.node_id
        cast.deliver(cast.leader, voter, cast.accept(voter))
        assert cast.leader.slots.existing_slot(1) is None
        cast.propose(cast.request)
        cast.deliver(cast.leader, voter, cast.accept(voter, view=1))
        assert cast.slot_of(cast.leader).voters("accept") == [cast.leader.node_id]

    def test_a_backup_counts_no_accept(self, cast):
        cast.deliver(cast.backup, cast.leader.node_id, cast.prepare())
        voter = cast.others[0]
        cast.deliver(cast.backup, voter, cast.accept(voter))
        assert cast.slot_of(cast.backup).vote_count("accept") == 0


class TestCommitAdmission:
    """One rule for both: the current view's leader, in view, in the protocol's mode."""

    def test_the_leaders_commit_executes_on_a_backup_that_never_saw_the_prepare(self, cast):
        cast.deliver(cast.backup, cast.leader.node_id, cast.commit())
        assert cast.slot_of(cast.backup).committed
        assert cast.backup.ledger.committed_sequences == [1]
        assert cast.sent_by(cast.backup, Reply) == []
        cast.deliver(cast.backup, cast.leader.node_id, cast.commit())
        assert len(cast.backup.ledger) == 1

    def test_a_commit_from_a_backup_is_refused(self, cast):
        cast.deliver(cast.backup, cast.others[0], cast.commit(replica_id=cast.others[0]))
        assert not cast.slot_of(cast.backup).committed

    def test_a_commit_for_another_view_is_refused(self, cast):
        cast.deliver(cast.backup, cast.leader.node_id, cast.commit(view=1))
        assert not cast.slot_of(cast.backup).committed

    def test_a_commit_of_another_mode_is_refused(self, cast):
        cast.deliver(cast.backup, cast.leader.node_id, cast.commit(mode=cast.mode + 1))
        assert not cast.slot_of(cast.backup).committed

    def test_a_commit_during_a_view_change_is_refused(self, cast):
        cast.backup.in_view_change = True
        cast.deliver(cast.backup, cast.leader.node_id, cast.commit())
        assert not cast.slot_of(cast.backup).committed

    def test_a_commit_without_its_payload_is_refused(self, cast):
        cast.deliver(cast.backup, cast.leader.node_id, cast.commit(request=None))
        assert not cast.slot_of(cast.backup).committed


def test_lions_commit_is_signed_and_must_verify():
    cast = _lion()
    forged = cast.commit()
    forged.sign(cast.deployment.keystore.signer_for(cast.others[0]))
    cast.backup.handle_message(cast.leader.node_id, forged)
    assert not cast.slot_of(cast.backup).committed


class TestModeledSizes:
    """A signed prepare or commit is 144 bytes plus its payload, an unsigned one 80."""

    def test_the_leaders_prepare_and_commit(self, cast):
        payload = cast.request.cached_wire_size()
        size = 144 if cast.signs else 80
        assert cast.prepare().wire_size() == size + payload
        assert cast.commit().wire_size() == size + payload
        assert cast.commit(request=None).wire_size() == size

    def test_an_accept_is_80_bytes_unsigned_and_144_signed(self, cast):
        assert cast.accept(cast.backup.node_id).wire_size() == 80
        assert cast.accept(cast.backup.node_id, signed=True).wire_size() == 144
