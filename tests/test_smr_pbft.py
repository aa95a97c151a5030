"""PBFT's three phases, written once in ``repro.smr.pbft``, on each protocol that runs them.

Peacock runs them among the current proxies at 2m+1, the bft and s-upright
baselines among every replica at the configuration's commit quorum.  Each
test drives one participating backup by hand -- messages go straight into
``handle_message``, the simulator never runs -- and records what it sends.
"""

from dataclasses import dataclass
from typing import Any, Callable, List, Tuple

import pytest

from repro.adaptive.evidence import EvidenceKind
from repro.cluster import build_pbft, build_seemore, build_upright
from repro.core import Mode
from repro.faults.byzantine import tampered_payload
from repro.smr.messages import Commit, PrePrepare, ProxyPrepare, Reply, Request
from repro.smr.replica import request_digest
from repro.smr.state_machine import Operation


@dataclass
class Cast:
    """One protocol's deployment, seen from a participating backup in view 0."""

    deployment: Any
    mode: int  # the mode id the agreement's messages carry
    primary: Any
    backup: Any
    others: List[str]  # participants other than the primary and the backup
    outsiders: List[str]  # key holders whose votes must not count
    quorum: int
    request: Request
    sent: List[Tuple[Any, Any]]  # (destination or destinations, message) the backup sent

    @property
    def digest(self) -> str:
        return request_digest(self.request)

    def signed(self, sender: str, message: Any) -> Any:
        return message.sign(self.deployment.keystore.signer_for(sender))

    def deliver(self, sender: str, message: Any) -> None:
        self.backup.handle_message(sender, self.signed(sender, message))

    def preprepare(self, payload: Any = None, **fields: Any) -> PrePrepare:
        payload = self.request if payload is None else payload
        values = dict(
            view=0, sequence=1, digest=request_digest(payload), request=payload, mode=self.mode
        )
        values.update(fields)
        return PrePrepare(**values)

    def prepare(self, voter: str, **fields: Any) -> ProxyPrepare:
        values = dict(view=0, sequence=1, digest=self.digest, replica_id=voter, mode=self.mode)
        values.update(fields)
        return ProxyPrepare(**values)

    def commit(self, voter: str, **fields: Any) -> Commit:
        values = dict(
            view=0, sequence=1, digest=self.digest, replica_id=voter, mode=self.mode, request=None
        )
        values.update(fields)
        return Commit(**values)

    def accept_preprepare(self) -> None:
        self.deliver(self.primary.node_id, self.preprepare())

    def prepare_slot(self) -> None:
        """The pre-prepare, then just enough prepares for the backup to send its commit."""
        self.accept_preprepare()
        for voter in self.others[: self.quorum - 2]:
            self.deliver(voter, self.prepare(voter))

    def sent_of(self, kind: type) -> List[Tuple[Any, Any]]:
        return [(dst, message) for dst, message in self.sent if type(message) is kind]

    @property
    def slot(self):
        return self.backup.slots.slot(1)

    def evidence(self, kind: EvidenceKind) -> List[Any]:
        return [record for record in self.backup.evidence.records if record.kind is kind]


def _cast(
    deployment: Any, mode: int, participants: List[str], outsiders: List[str], quorum: int
) -> Cast:
    primary_id = deployment.replicas[participants[0]].current_primary()
    primary = deployment.replicas[primary_id]
    backup_id = next(each for each in participants if each != primary_id)
    backup = deployment.replicas[backup_id]
    client = deployment.clients[0].node_id
    request = Request(operation=Operation("put", ("k", 1)), timestamp=1, client_id=client)
    request.sign(deployment.keystore.signer_for(client))
    sent: List[Tuple[Any, Any]] = []
    backup.multicast = lambda destinations, message: sent.append((list(destinations), message))
    backup.send = lambda destination, message: sent.append((destination, message))
    return Cast(
        deployment=deployment,
        mode=mode,
        primary=primary,
        backup=backup,
        others=[each for each in participants if each not in (primary_id, backup_id)],
        outsiders=[client] + outsiders,
        quorum=quorum,
        request=request,
        sent=sent,
    )


def _peacock() -> Cast:
    deployment = build_seemore(mode=Mode.PEACOCK, num_clients=1)
    config = deployment.group().config
    proxies = sorted(config.proxy_set_of_view(0, Mode.PEACOCK))
    private = list(config.private_replicas)
    return _cast(deployment, int(Mode.PEACOCK), proxies, private, config.commit_quorum(Mode.PEACOCK))


def _baseline(builder: Callable[..., Any]) -> Callable[[], Cast]:
    def build() -> Cast:
        deployment = builder(num_clients=1)
        config = deployment.group().config
        return _cast(deployment, 0, list(config.replicas), [], config.commit_quorum)

    return build


@pytest.fixture(
    params=[_peacock, _baseline(build_pbft), _baseline(build_upright)],
    ids=["peacock", "bft", "s-upright"],
)
def cast(request) -> Cast:
    return request.param()


def test_every_cast_has_room_for_the_quorum(cast):
    participants = 2 + len(cast.others)
    assert 2 < cast.quorum < participants
    assert not set(cast.outsiders) & {cast.primary.node_id, cast.backup.node_id, *cast.others}


class TestPrePrepareAdmission:
    def test_an_accepted_preprepare_is_the_primarys_prepare_and_the_backup_sends_its_own(
        self, cast
    ):
        cast.accept_preprepare()
        assert cast.slot.digest == cast.digest
        assert sorted(cast.slot.voters("prepare")) == sorted(
            [cast.primary.node_id, cast.backup.node_id]
        )
        [(destinations, prepare)] = cast.sent
        assert type(prepare) is ProxyPrepare
        assert sorted(destinations) == sorted([cast.primary.node_id, *cast.others])
        assert (prepare.view, prepare.sequence, prepare.digest, prepare.mode) == (
            0, 1, cast.digest, cast.mode,
        )
        assert prepare.replica_id == cast.backup.node_id
        assert prepare.verify(cast.backup.verifier, expected_signer=cast.backup.node_id)

    def test_a_preprepare_from_a_backup_is_refused(self, cast):
        impostor = cast.others[0]
        cast.deliver(impostor, cast.preprepare())
        assert cast.slot.digest is None and cast.sent == []

    def test_a_preprepare_signed_by_another_key_is_refused(self, cast):
        forged = cast.signed(cast.others[0], cast.preprepare())
        cast.backup.handle_message(cast.primary.node_id, forged)
        assert cast.slot.digest is None and cast.sent == []

    def test_a_preprepare_whose_digest_does_not_match_its_payload_is_refused(self, cast):
        twisted = request_digest(tampered_payload(cast.request))
        cast.deliver(cast.primary.node_id, cast.preprepare(digest=twisted))
        assert cast.slot.digest is None and cast.sent == []

    def test_a_preprepare_for_another_view_is_refused(self, cast):
        cast.deliver(cast.primary.node_id, cast.preprepare(view=1))
        assert cast.slot.digest is None and cast.sent == []

    def test_a_preprepare_of_another_mode_is_refused(self, cast):
        cast.deliver(cast.primary.node_id, cast.preprepare(mode=cast.mode + 1))
        assert cast.slot.digest is None and cast.sent == []

    def test_a_repeated_preprepare_is_no_equivocation(self, cast):
        cast.accept_preprepare()
        cast.accept_preprepare()
        assert cast.slot.digest == cast.digest
        assert cast.slot.vote_count("prepare") == 2
        assert cast.evidence(EvidenceKind.EQUIVOCATION) == []


class TestPrepare:
    def test_a_prepare_quorum_sends_one_signed_commit(self, cast):
        cast.accept_preprepare()
        voters = cast.others[: cast.quorum - 2]
        for voter in voters[:-1]:
            cast.deliver(voter, cast.prepare(voter))
        assert cast.sent_of(Commit) == []
        cast.deliver(voters[-1], cast.prepare(voters[-1]))
        assert cast.slot.vote_count("prepare") == cast.quorum
        [(destinations, commit)] = cast.sent_of(Commit)
        assert sorted(destinations) == sorted([cast.primary.node_id, *cast.others])
        assert (commit.view, commit.sequence, commit.digest, commit.mode) == (
            0, 1, cast.digest, cast.mode,
        )
        assert commit.verify(cast.backup.verifier, expected_signer=cast.backup.node_id)
        assert cast.slot.voters("commit") == [cast.backup.node_id]

        late = cast.others[cast.quorum - 2]
        cast.deliver(late, cast.prepare(late))
        assert len(cast.sent_of(Commit)) == 1

    def test_a_repeated_prepare_counts_once(self, cast):
        cast.accept_preprepare()
        voter = cast.others[0]
        for _ in range(cast.quorum):
            cast.deliver(voter, cast.prepare(voter))
        assert cast.slot.vote_count("prepare") == 3
        assert len(cast.sent_of(Commit)) == (1 if cast.quorum <= 3 else 0)

    def test_a_prepare_for_another_view_does_not_count(self, cast):
        cast.accept_preprepare()
        for voter in cast.others:
            cast.deliver(voter, cast.prepare(voter, view=1))
        assert cast.slot.vote_count("prepare") == 2 and cast.sent_of(Commit) == []

    def test_a_prepare_contradicting_the_assignment_is_unattributed_evidence(self, cast):
        cast.accept_preprepare()
        voter = cast.others[0]
        twisted = request_digest(tampered_payload(cast.request))
        cast.deliver(voter, cast.prepare(voter, digest=twisted))
        assert cast.slot.vote_count("prepare") == 2
        [record] = cast.evidence(EvidenceKind.CONFLICTING_VOTE)
        assert record.suspect is None

    def test_an_outsiders_prepare_is_no_vote(self, cast):
        cast.accept_preprepare()
        for outsider in cast.outsiders:
            cast.deliver(outsider, cast.prepare(outsider))
        assert sorted(cast.slot.voters("prepare")) == sorted(
            [cast.primary.node_id, cast.backup.node_id]
        )


class TestCommit:
    def _commit_from_others(self, cast, count: int) -> None:
        for voter in [cast.primary.node_id, *cast.others][:count]:
            cast.deliver(voter, cast.commit(voter))

    def test_a_commit_quorum_commits_the_slot_once_and_replies(self, cast):
        cast.prepare_slot()
        self._commit_from_others(cast, cast.quorum - 2)
        assert not cast.slot.committed and len(cast.backup.ledger) == 0
        self._commit_from_others(cast, cast.quorum - 1)
        assert cast.slot.committed
        assert cast.backup.ledger.committed_sequences == [1]
        assert cast.backup.ledger.digest_at(1) == cast.digest
        replies = cast.sent_of(Reply)
        assert [dst for dst, _ in replies] == [cast.request.client_id]

        sent = list(cast.sent)
        self._commit_from_others(cast, len(cast.others) + 1)
        assert len(cast.backup.ledger) == 1 and cast.sent == sent

    def test_commits_that_arrive_before_the_preprepare_count_once_it_does(self, cast):
        self._commit_from_others(cast, cast.quorum - 1)
        assert not cast.slot.committed and cast.sent == []
        cast.prepare_slot()
        assert cast.slot.committed
        assert cast.backup.ledger.committed_sequences == [1]

    def test_a_commit_for_another_digest_does_not_count(self, cast):
        cast.prepare_slot()
        twisted = request_digest(tampered_payload(cast.request))
        for voter in [cast.primary.node_id, *cast.others]:
            cast.deliver(voter, cast.commit(voter, digest=twisted))
        assert cast.slot.vote_count("commit") == 1
        assert not cast.slot.committed and len(cast.backup.ledger) == 0

    def test_an_outsiders_commit_is_no_vote(self, cast):
        cast.prepare_slot()
        self._commit_from_others(cast, cast.quorum - 2)
        for outsider in cast.outsiders:
            cast.deliver(outsider, cast.commit(outsider))
        assert not cast.slot.committed
        assert cast.backup.node_id in cast.slot.voters("commit")
        assert not set(cast.outsiders) & set(cast.slot.voters("commit"))
