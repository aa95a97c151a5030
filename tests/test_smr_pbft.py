"""PBFT's three phases, written once in ``repro.smr.pbft``, on each protocol that runs them.

Peacock runs them among the current proxies at 2m+1, the bft and s-upright
baselines among every replica at the configuration's commit quorum, and Dog
among the current proxies on its own ``Prepare`` / ``Accept`` / ``Commit``
with a trusted primary: the primary casts no vote, its assignment
supersedes a stale one, a contradicting vote names its voter, a prepared
slot is committed, and m+1 commits catch a proxy up.  Each test drives one
participating backup by hand -- messages go straight into
``handle_message``, the simulator never runs -- and records what it sends.
"""

from dataclasses import dataclass
from typing import Any, Callable, List, Tuple

import pytest

from repro.adaptive.evidence import EvidenceKind
from repro.cluster import build_pbft, build_seemore, build_upright
from repro.core import Mode
from repro.faults.byzantine import tampered_payload
from repro.core.messages import Inform
from repro.smr.messages import Commit, Reply, Request
from repro.smr.replica import request_digest
from repro.smr.state_machine import Operation


@dataclass
class Cast:
    """One protocol's deployment, seen from a participating backup in view 0."""

    deployment: Any
    mode: int  # the mode id the agreement's messages carry
    trusted: bool  # whether the primary is trusted
    primary: Any
    backup: Any
    participants: List[str]  # whose votes count; a trusted primary is not among them
    others: List[str]  # participants other than the primary and the backup
    outsiders: List[str]  # key holders whose votes must not count
    quorum: int  # matching prepares that prepare a slot
    commit_quorum: int  # matching commits that commit it
    request: Request
    sent: List[Tuple[Any, Any]]  # (destination or destinations, message) the backup sent

    @property
    def digest(self) -> str:
        return request_digest(self.request)

    @property
    def phase(self) -> str:
        """The slot vote key of the agreement's prepare votes."""
        return self.backup.agreement.prepare_phase

    @property
    def peers(self) -> List[str]:
        """The participants the backup multicasts its votes to."""
        return [each for each in self.participants if each != self.backup.node_id]

    @property
    def preprepare_voters(self) -> List[str]:
        """Whose prepare votes an accepted pre-prepare records: the primary's iff it takes part."""
        voters = (self.primary.node_id, self.backup.node_id)
        return [each for each in voters if each in self.participants]

    def signed(self, sender: str, message: Any) -> Any:
        return message.sign(self.deployment.keystore.signer_for(sender))

    def deliver(self, sender: str, message: Any) -> None:
        self.backup.handle_message(sender, self.signed(sender, message))

    def preprepare(self, payload: Any = None, **fields: Any) -> Any:
        payload = self.request if payload is None else payload
        values = dict(
            view=0, sequence=1, digest=request_digest(payload), request=payload, mode=self.mode
        )
        values.update(fields)
        return self.backup.agreement.preprepare_class(**values)

    def prepare(self, voter: str, **fields: Any) -> Any:
        values = dict(
            view=0, sequence=1, digest=self.digest, replica_id=voter, mode=self.mode, signed=True
        )
        values.update(fields)
        return self.backup.agreement.prepare_class(**values)

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
        for voter in self.others[: self.quorum - len(self.preprepare_voters)]:
            self.deliver(voter, self.prepare(voter))

    def await_commits(self) -> None:
        """Bring the backup as far as it gets without the others' commits: prepared,
        its own commit sent, under an untrusted primary; holding the assignment
        under a trusted one, where a prepared slot is already committed."""
        if self.trusted:
            self.accept_preprepare()
        else:
            self.prepare_slot()

    def sent_of(self, kind: type) -> List[Tuple[Any, Any]]:
        return [(dst, message) for dst, message in self.sent if type(message) is kind]

    @property
    def slot(self):
        return self.backup.slots.slot(1)

    def evidence(self, kind: EvidenceKind) -> List[Any]:
        return [record for record in self.backup.evidence.records if record.kind is kind]


def _cast(
    deployment: Any,
    mode: int,
    participants: List[str],
    outsiders: List[str],
    quorum: int,
    commit_quorum: int,
    trusted: bool = False,
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
        trusted=trusted,
        primary=primary,
        backup=backup,
        participants=participants,
        others=[each for each in participants if each not in (primary_id, backup_id)],
        outsiders=[client] + outsiders,
        quorum=quorum,
        commit_quorum=commit_quorum,
        request=request,
        sent=sent,
    )


def _proxies(mode: Mode) -> Callable[[], Cast]:
    """SeeMoRe's ``mode`` among the current proxies; the private cloud are outsiders."""

    def build() -> Cast:
        deployment = build_seemore(mode=mode, num_clients=1)
        config = deployment.group().config
        proxies = sorted(config.proxy_set_of_view(0, mode))
        outsiders = [each for each in config.all_replicas if each not in proxies]
        return _cast(
            deployment,
            int(mode),
            proxies,
            outsiders,
            config.accept_quorum(mode),
            config.commit_quorum(mode),
            trusted=mode.has_trusted_primary,
        )

    return build


def _baseline(builder: Callable[..., Any]) -> Callable[[], Cast]:
    def build() -> Cast:
        deployment = builder(num_clients=1)
        config = deployment.group().config
        quorum = config.commit_quorum
        return _cast(deployment, 0, list(config.replicas), [], quorum, quorum)

    return build


@pytest.fixture(
    params=[
        _proxies(Mode.PEACOCK),
        _baseline(build_pbft),
        _baseline(build_upright),
        _proxies(Mode.DOG),
    ],
    ids=["peacock", "bft", "s-upright", "dog"],
)
def cast(request) -> Cast:
    return request.param()


def test_every_cast_has_room_for_the_quorum(cast):
    assert 2 < cast.quorum < len(cast.participants)
    assert 1 < cast.commit_quorum <= cast.quorum
    assert not set(cast.outsiders) & set(cast.participants)
    # A trusted primary is no participant: its votes are an outsider's.
    assert (cast.primary.node_id in cast.outsiders) is cast.trusted


class TestPrePrepareAdmission:
    def test_an_accepted_preprepare_is_a_participants_prepare_and_the_backup_sends_its_own(
        self, cast
    ):
        cast.accept_preprepare()
        assert cast.slot.digest == cast.digest
        assert sorted(cast.slot.voters(cast.phase)) == sorted(cast.preprepare_voters)
        [(destinations, prepare)] = cast.sent
        assert type(prepare) is cast.backup.agreement.prepare_class
        assert sorted(destinations) == sorted(cast.peers)
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
        assert cast.slot.vote_count(cast.phase) == len(cast.preprepare_voters)
        assert cast.evidence(EvidenceKind.EQUIVOCATION) == []

    def test_a_conflicting_preprepare_is_equivocation_unless_the_primary_is_trusted(self, cast):
        cast.accept_preprepare()
        twisted = tampered_payload(cast.request)
        cast.deliver(cast.primary.node_id, cast.preprepare(twisted))
        # A trusted primary's assignment supersedes the stale one; an untrusted
        # primary's second assignment is refused as proof that it equivocated.
        kept = request_digest(twisted) if cast.trusted else cast.digest
        assert cast.slot.digest == kept
        equivocations = cast.evidence(EvidenceKind.EQUIVOCATION)
        assert [record.suspect for record in equivocations] == (
            [] if cast.trusted else [cast.primary.node_id]
        )


class TestPrepare:
    def test_a_prepare_quorum_sends_one_signed_commit(self, cast):
        cast.accept_preprepare()
        voters = cast.others[: cast.quorum - len(cast.preprepare_voters)]
        for voter in voters[:-1]:
            cast.deliver(voter, cast.prepare(voter))
        assert cast.sent_of(Commit) == []
        cast.deliver(voters[-1], cast.prepare(voters[-1]))
        assert cast.slot.vote_count(cast.phase) == cast.quorum
        [(destinations, commit)] = cast.sent_of(Commit)
        assert sorted(destinations) == sorted(cast.peers)
        assert (commit.view, commit.sequence, commit.digest, commit.mode) == (
            0, 1, cast.digest, cast.mode,
        )
        assert commit.verify(cast.backup.verifier, expected_signer=cast.backup.node_id)
        # Under a trusted primary the prepared slot is committed at once, so the
        # backup's commit is no vote it counts: the commit goes out, then the
        # informs, then the reply.
        assert cast.slot.voters("commit") == ([] if cast.trusted else [cast.backup.node_id])
        assert cast.slot.committed is cast.trusted
        prepare_class = cast.backup.agreement.prepare_class
        assert [type(message) for _, message in cast.sent] == (
            [prepare_class, Commit, Inform, Reply] if cast.trusted else [prepare_class, Commit]
        )

        late = cast.others[len(voters)]
        cast.deliver(late, cast.prepare(late))
        assert len(cast.sent_of(Commit)) == 1

    def test_a_repeated_prepare_counts_once(self, cast):
        cast.accept_preprepare()
        voter = cast.others[0]
        for _ in range(cast.quorum):
            cast.deliver(voter, cast.prepare(voter))
        counted = len(cast.preprepare_voters) + 1
        assert cast.slot.vote_count(cast.phase) == counted
        assert len(cast.sent_of(Commit)) == (1 if cast.quorum <= counted else 0)

    def test_a_prepare_for_another_view_does_not_count(self, cast):
        cast.accept_preprepare()
        for voter in cast.others:
            cast.deliver(voter, cast.prepare(voter, view=1))
        assert cast.slot.vote_count(cast.phase) == len(cast.preprepare_voters)
        assert cast.sent_of(Commit) == []

    def test_an_unsigned_prepare_is_no_vote(self, cast):
        cast.accept_preprepare()
        for voter in cast.others:
            cast.backup.handle_message(voter, cast.prepare(voter, signed=False))
        assert sorted(cast.slot.voters(cast.phase)) == sorted(cast.preprepare_voters)

    def test_a_prepare_contradicting_the_assignment_names_the_voter_iff_the_primary_is_trusted(
        self, cast
    ):
        cast.accept_preprepare()
        voter = cast.others[0]
        twisted = request_digest(tampered_payload(cast.request))
        cast.deliver(voter, cast.prepare(voter, digest=twisted))
        assert cast.slot.vote_count(cast.phase) == len(cast.preprepare_voters)
        # Against an untrusted primary's assignment the voter may be honest
        # and the primary the equivocator: the evidence names nobody.
        [record] = cast.evidence(EvidenceKind.CONFLICTING_VOTE)
        assert record.suspect == (voter if cast.trusted else None)

    def test_an_outsiders_prepare_is_no_vote(self, cast):
        cast.accept_preprepare()
        for outsider in cast.outsiders:
            cast.deliver(outsider, cast.prepare(outsider))
        assert sorted(cast.slot.voters(cast.phase)) == sorted(cast.preprepare_voters)


class TestCommit:
    def _commit_from_others(self, cast, count: int, **fields: Any) -> None:
        for voter in cast.peers[:count]:
            cast.deliver(voter, cast.commit(voter, **fields))

    def _commits_needed(self, cast) -> int:
        """Commits from others that complete the quorum after ``await_commits``."""
        return cast.commit_quorum - cast.slot.vote_count("commit")

    def test_a_commit_quorum_commits_the_slot_once_and_replies(self, cast):
        cast.await_commits()
        own = list(cast.sent_of(Commit))
        needed = self._commits_needed(cast)
        self._commit_from_others(cast, needed - 1)
        assert not cast.slot.committed and len(cast.backup.ledger) == 0
        self._commit_from_others(cast, needed)
        assert cast.slot.committed
        assert cast.backup.ledger.committed_sequences == [1]
        assert cast.backup.ledger.digest_at(1) == cast.digest
        replies = cast.sent_of(Reply)
        assert [dst for dst, _ in replies] == [cast.request.client_id]
        # A proxy caught up from commits sends no commit of its own.
        assert cast.sent_of(Commit) == own

        sent = list(cast.sent)
        self._commit_from_others(cast, len(cast.peers))
        assert len(cast.backup.ledger) == 1 and cast.sent == sent

    def test_a_backup_committed_before_it_is_prepared_votes_only_under_an_untrusted_primary(
        self, cast
    ):
        cast.accept_preprepare()
        self._commit_from_others(cast, len(cast.peers))
        assert cast.slot.committed and cast.sent_of(Commit) == []
        for voter in cast.others:
            cast.deliver(voter, cast.prepare(voter))
        assert len(cast.sent_of(Commit)) == (0 if cast.trusted else 1)

    def test_commits_that_arrive_before_the_preprepare_count_once_it_does(self, cast):
        self._commit_from_others(cast, cast.quorum - 1)
        assert not cast.slot.committed and cast.sent == []
        cast.prepare_slot()
        assert cast.slot.committed
        assert cast.backup.ledger.committed_sequences == [1]

    def test_banked_commits_count_on_the_next_matching_commit(self, cast):
        self._commit_from_others(cast, cast.commit_quorum)
        cast.accept_preprepare()
        assert not cast.slot.committed
        twisted = request_digest(tampered_payload(cast.request))
        for voter in cast.peers[cast.commit_quorum :]:
            cast.deliver(voter, cast.commit(voter, digest=twisted))
        assert not cast.slot.committed
        self._commit_from_others(cast, 1)
        assert cast.slot.committed

    def test_a_commit_for_another_digest_does_not_count(self, cast):
        cast.await_commits()
        own = cast.slot.vote_count("commit")
        twisted = request_digest(tampered_payload(cast.request))
        self._commit_from_others(cast, len(cast.peers), digest=twisted)
        assert cast.slot.vote_count("commit") == own
        assert not cast.slot.committed and len(cast.backup.ledger) == 0

    def test_an_unsigned_commit_is_no_vote(self, cast):
        cast.await_commits()
        own = cast.slot.vote_count("commit")
        for voter in cast.peers:
            cast.backup.handle_message(voter, cast.commit(voter, signed=False))
        assert cast.slot.vote_count("commit") == own and not cast.slot.committed

    def test_an_outsiders_commit_is_no_vote(self, cast):
        cast.await_commits()
        self._commit_from_others(cast, self._commits_needed(cast) - 1)
        for outsider in cast.outsiders:
            cast.deliver(outsider, cast.commit(outsider))
        assert not cast.slot.committed
        assert not set(cast.outsiders) & set(cast.slot.voters("commit"))


class TestASwitchBetweenDogAndPeacock:
    """A switch keeps a re-proposed slot's votes; neither mode's round reads the other's."""

    def test_dog_accepts_do_not_prepare_a_peacock_slot(self):
        cast = _proxies(Mode.DOG)()
        cast.accept_preprepare()
        cast.deliver(cast.others[0], cast.prepare(cast.others[0]))  # two of Dog's three accepts
        cast.backup.set_mode(Mode.PEACOCK)
        cast.mode = int(Mode.PEACOCK)
        cast.deliver(cast.others[1], cast.prepare(cast.others[1]))
        assert cast.slot.vote_count(cast.phase) == 1 and cast.sent_of(Commit) == []

    def test_a_peacock_commit_does_not_stop_a_dog_proxy_committing_on_its_accepts(self):
        cast = _proxies(Mode.PEACOCK)()
        cast.prepare_slot()
        assert len(cast.sent_of(Commit)) == 1 and not cast.slot.committed
        cast.backup.set_mode(Mode.DOG)
        cast.mode = int(Mode.DOG)
        for voter in cast.peers:
            cast.deliver(voter, cast.prepare(voter))
        assert cast.slot.committed and len(cast.sent_of(Commit)) == 2
