"""PBFT's normal case (Castro & Liskov, OSDI '99), shared by Dog, Peacock and the BFT baselines.

The primary multicasts a signed ``PRE-PREPARE`` with the slot payload,
which is its prepare vote if it takes part; every participant multicasts a
signed ``PREPARE`` to the others; once a quorum of matching prepares (its
own included) makes the slot prepared it multicasts a signed ``COMMIT``,
and a quorum of matching commits commits the slot.  An unsigned vote is no
vote.  An untrusted primary's second, conflicting pre-prepare for a slot is
refused and recorded as EQUIVOCATION evidence: the slot stalls and the
request timer removes the primary.  A trusted primary (SeeMoRe's Dog mode)
cannot equivocate: its pre-prepare supersedes stale slot content, a vote
contradicting it names the voter, and a prepared slot is committed at once.

:class:`PbftAgreement` writes those phases once, for SeeMoRe's Dog and
Peacock modes (among the 3m+1 public-cloud proxies, Sections 5.2 and 5.3)
and for the bft and s-upright baselines (among every replica).  It is
stateless: every handler takes the replica it runs on, and
:meth:`~repro.smr.replica.ReplicaBase.install_agreement` routes the
messages ``handlers`` names to them.  A protocol subclasses it with its
answers — its ordering and vote classes, whether the primary is trusted,
whose votes count (``counts_vote_from``; the replica takes part iff its own
would), whom it multicasts to (``peers``), what else an ordering message
must pass (``admits``) and what runs just before a committed slot is
finalized (``committing``).  Its messages carry ``mode`` (a baseline's is
0).  The replica's ``quorum`` and ``commit_quorum``, installed with its
roles, say how many matching prepares prepare a slot and how many matching
commits commit it.
"""

from __future__ import annotations

from typing import Any, List

from repro.adaptive.evidence import EvidenceKind
from repro.smr.messages import Commit, PrePrepare, ProxyPrepare
from repro.smr.replica import request_digest
from repro.smr.slots import Slot


class PbftAgreement:
    """Pre-prepare, prepare and commit; a protocol subclasses it with its answers."""

    #: The mode id every message of the agreement carries.
    mode = 0
    #: The primary's ordering message, a participant's prepare vote and its slot vote key.
    preprepare_class, prepare_class, prepare_phase = PrePrepare, ProxyPrepare, "prepare"
    #: The phase message classes this agreement handles, and the method for each.
    handlers = {PrePrepare: "on_preprepare", ProxyPrepare: "on_proxy_prepare", Commit: "on_commit"}
    #: Whether the primary is trusted to order correctly.
    trusted_primary = False

    # -- the answers a protocol gives ----------------------------------------------

    def counts_vote_from(self, replica: Any, src: str) -> bool:
        """Whether ``src`` takes part in the agreement ``replica`` runs."""
        raise NotImplementedError

    def peers(self, replica: Any) -> List[str]:
        """The other participants, to whom ``replica`` multicasts its votes."""
        raise NotImplementedError

    def admits(self, replica: Any, sequence: int) -> bool:
        """Whether a verified ordering message for ``sequence`` may fill its slot."""
        return True

    def committing(self, replica: Any, slot: Slot) -> None:
        """What the protocol does just before a committed ``slot`` is finalized."""

    # -- pre-prepare ------------------------------------------------------------------

    def ordering_message(self, replica: Any, sequence: int, digest: str, payload: Any) -> Any:
        return self.preprepare_class(
            view=replica.view,
            sequence=sequence,
            digest=digest,
            request=payload,
            mode=int(self.mode),
        )

    def record_proposal_vote(self, replica: Any, slot: Slot, digest: str) -> None:
        # As in PBFT, the primary's pre-prepare doubles as its prepare vote.
        if self.counts_vote_from(replica, replica.node_id):
            slot.record_vote(self.prepare_phase, replica.node_id, digest)

    def on_preprepare(self, replica: Any, src: str, message: Any) -> None:
        if not replica.accepts_ordering_from(src, message.view, message.mode):
            return
        if not replica.verify_message(src, message):
            return
        if not self.admits(replica, message.sequence):
            return
        if message.digest != request_digest(message.request):
            return

        existing = replica.slots.existing_slot(message.sequence)
        if (
            not self.trusted_primary
            and existing is not None
            and existing.digest is not None
            and existing.digest != message.digest
        ):
            # The untrusted primary equivocated; refuse the second assignment
            # and let the timer trigger a view change.  Two conflicting
            # signed assignments for one slot are a hard proof of Byzantine
            # behaviour -- record it for the adaptive controller.
            replica.evidence.record(
                EvidenceKind.EQUIVOCATION,
                suspect=src,
                detail=f"pre-prepare seq={message.sequence} view={message.view}",
            )
            return

        # A trusted primary's assignment supersedes stale uncommitted content.
        slot = replica.fill_slot(
            message.sequence, message.digest, message.request, message, force=self.trusted_primary
        )
        # As in PBFT, a participating primary's pre-prepare counts as its
        # prepare vote: the prepared certificate is the pre-prepare plus
        # matching prepares from the other participants.
        if self.counts_vote_from(replica, src):
            slot.record_vote(self.prepare_phase, src, message.digest)
        replica.view_changes.start_request_timer()
        if not self.counts_vote_from(replica, replica.node_id):
            return

        self._send_prepare(replica, slot, message.digest)
        self._maybe_send_commit(replica, slot)

    # -- prepare ----------------------------------------------------------------------

    def _send_prepare(self, replica: Any, slot: Slot, digest: str) -> None:
        """A participant's signed prepare vote, counted locally and sent to its peers."""
        prepare = self.prepare_class(
            view=replica.view,
            sequence=slot.sequence,
            digest=digest,
            replica_id=replica.node_id,
            mode=int(self.mode),
            signed=True,
        )
        prepare.sign(replica.signer)
        slot.record_vote(self.prepare_phase, replica.node_id, digest)
        replica.multicast(self.peers(replica), prepare)

    def reenter(self, replica: Any, slot: Slot, entry: Any) -> None:
        """A fresh prepare vote for a slot the new view re-proposes."""
        if self.counts_vote_from(replica, replica.node_id):
            self._send_prepare(replica, slot, entry.digest)

    def _counts_vote(self, replica: Any, src: str, message: Any) -> bool:
        """Whether ``src``'s vote counts: both take part, in this view, signed and verified."""
        return (
            self.counts_vote_from(replica, replica.node_id)
            and replica.valid_view(message.view)
            and self.counts_vote_from(replica, src)
            and message.signed
            and replica.verify_message(src, message)
        )

    def on_proxy_prepare(self, replica: Any, src: str, message: Any) -> None:
        if not self._counts_vote(replica, src, message):
            return
        slot = replica.slots.slot(message.sequence)
        if slot.digest is not None and message.digest != slot.digest:
            # A same-view vote contradicting the slot's assignment proves
            # Byzantine behaviour.  Against a trusted primary's assignment
            # only the voter can be at fault.  Against an untrusted one either
            # the voter lied or the primary equivocated, and this receiver
            # cannot tell which: the event still counts toward escalation,
            # but never names an honest participant.
            replica.evidence.record(
                EvidenceKind.CONFLICTING_VOTE,
                suspect=src if self.trusted_primary else None,
                detail=f"prepare seq={message.sequence} view={message.view}: "
                f"{src} contradicts the assignment",
            )
        slot.record_vote(self.prepare_phase, src, message.digest)
        self._maybe_send_commit(replica, slot)

    def _maybe_send_commit(self, replica: Any, slot: Slot) -> None:
        if slot.digest is None or slot.request is None:
            return
        # Whether the replica sent its commit: under a trusted primary it sends
        # one exactly when it commits the prepared slot, so a replica that
        # caught up from commits sends none.
        if self.trusted_primary:
            if slot.committed:
                return
        elif slot.has_vote_from("commit", replica.node_id):
            return
        # Prepared: the pre-prepare plus matching prepares from distinct
        # participants (the replica's own prepare counts).
        if slot.vote_count(self.prepare_phase) < replica.quorum:
            return

        commit = Commit(
            view=replica.view,
            sequence=slot.sequence,
            digest=slot.digest,
            replica_id=replica.node_id,
            mode=int(self.mode),
            request=None,
        )
        commit.sign(replica.signer)
        replica.multicast(self.peers(replica), commit)
        if self.trusted_primary:
            # Nobody can have prepared another assignment: prepared is committed.
            self._commit(replica, slot)
        else:
            slot.record_vote("commit", replica.node_id, slot.digest)
            self._maybe_commit(replica, slot)

    # -- commit -----------------------------------------------------------------------

    def on_commit(self, replica: Any, src: str, message: Commit) -> None:
        if not self._counts_vote(replica, src, message):
            return
        slot = replica.slots.slot(message.sequence)
        slot.record_vote("commit", src, message.digest)
        # Only a commit for the slot's assignment can complete its quorum.
        if message.digest == slot.digest:
            self._maybe_commit(replica, slot)

    def _maybe_commit(self, replica: Any, slot: Slot) -> None:
        if slot.committed or slot.digest is None or slot.request is None:
            return
        if slot.vote_count("commit") < replica.commit_quorum:
            return
        self._commit(replica, slot)

    def _commit(self, replica: Any, slot: Slot) -> None:
        self.committing(replica, slot)
        replica.finalize(slot, send_reply=True)
