"""The leader agreement: Paxos's phase 2, shared by Lion and the CFT baseline.

A leader the other replicas trust to order correctly (SeeMoRe's trusted
primary in the Lion mode, Section 5.1; the Paxos leader of the crash model,
Lamport's "Paxos Made Simple" as BFT-SMaRt implements it) multicasts a
``PREPARE`` with the slot payload; every replica answers the leader with an
``ACCEPT``; at a quorum of matching accepts (its own included) the leader
multicasts a ``COMMIT`` that carries the payload, executes and replies, and
a replica executes on the leader's commit.  Nobody needs to detect an
equivocating leader, so two phases and a linear number of messages suffice.

:class:`LeaderAgreement` writes those phases once, for Lion (signed, at
2m+c+1) and for the cft baseline (unsigned, mode 0, at f+1).  It is
stateless: every handler takes the replica it runs on, and
:meth:`~repro.smr.replica.ReplicaBase.install_agreement` routes the
messages ``handlers`` names to them.  A protocol subclasses it with its
answers — the ``quorum``, whether the leader ``signs``, what else a prepare
must pass (``admits``) and the vote it casts for a slot a new view
re-proposes (``reenter``).  A prepare and a commit are taken only from the
current view's primary, in view and in the protocol's mode.
"""

from __future__ import annotations

from typing import Any

from repro.adaptive.evidence import EvidenceKind
from repro.smr.messages import Accept, Commit, Prepare
from repro.smr.replica import request_digest
from repro.smr.slots import Slot


class LeaderAgreement:
    """Prepare, accept and commit; a protocol subclasses it with its answers."""

    #: The mode id every message of the agreement carries.
    mode = 0
    #: Whether the leader signs its prepare and commit.
    signs = True
    #: The phase message classes this agreement handles, and the method for each.
    handlers = {Prepare: "on_prepare", Accept: "on_accept", Commit: "on_commit"}

    # -- the answers a protocol gives ----------------------------------------------

    def quorum(self, replica: Any) -> int:
        """Matching accepts, the leader's own included, that commit a slot."""
        raise NotImplementedError

    def admits(self, replica: Any, sequence: int) -> bool:
        """Whether a verified prepare for ``sequence`` may fill its slot."""
        return True

    def reenter(self, replica: Any, slot: Slot, entry: Any) -> None:
        """Cast this replica's vote for a slot the new view re-proposes."""
        raise NotImplementedError

    # -- prepare ----------------------------------------------------------------------

    def ordering_message(self, replica: Any, sequence: int, digest: str, payload: Any) -> Prepare:
        return Prepare(
            view=replica.view,
            sequence=sequence,
            digest=digest,
            request=payload,
            mode=int(self.mode),
            signed=self.signs,
        )

    def record_proposal_vote(self, replica: Any, slot: Slot, digest: str) -> None:
        # The leader's own accept counts toward the quorum.
        slot.record_vote("accept", replica.node_id, digest)

    def on_prepare(self, replica: Any, src: str, message: Prepare) -> None:
        if not replica.accepts_ordering_from(src, message.view, message.mode):
            return
        if not replica.verify_message(src, message):
            return
        if not self.admits(replica, message.sequence):
            return
        if message.digest != request_digest(message.request):
            return

        # The leader is trusted, so its assignment supersedes any stale
        # uncommitted content this slot may hold from an earlier view/mode.
        replica.fill_slot(message.sequence, message.digest, message.request, message, force=True)
        replica.send(src, self.accept(replica, message.sequence, message.digest))
        replica.view_changes.start_request_timer()

    def accept(self, replica: Any, sequence: int, digest: str) -> Accept:
        """A replica's unsigned accept of the leader's assignment, in its current view."""
        return Accept(
            view=replica.view,
            sequence=sequence,
            digest=digest,
            replica_id=replica.node_id,
            mode=int(self.mode),
            signed=False,
        )

    # -- accept -----------------------------------------------------------------------

    def on_accept(self, replica: Any, src: str, message: Accept) -> None:
        if not replica.is_primary():
            return
        if not replica.valid_view(message.view):
            return
        slot = replica.slots.existing_slot(message.sequence)
        if slot is None:
            return
        if slot.digest is not None and message.digest != slot.digest:
            # A same-view accept contradicting the trusted leader's own
            # assignment can only come from a faulty replica.
            replica.evidence.record(
                EvidenceKind.CONFLICTING_VOTE,
                suspect=src,
                detail=f"accept seq={message.sequence} view={message.view}",
            )
            return
        if slot.digest is None or slot.committed:
            # No assignment yet (nothing to vote on) or already committed;
            # the mismatch case returned above.
            return

        count = slot.record_vote("accept", src, message.digest)
        if count < self.quorum(replica):
            return

        commit = Commit(
            view=replica.view,
            sequence=message.sequence,
            digest=slot.digest,
            replica_id=replica.node_id,
            mode=int(self.mode),
            request=slot.request,
            signed=self.signs,
        )
        if self.signs:
            commit.sign(replica.signer)
        replica.multicast(replica.other_replicas(), commit)
        replica.finalize(slot, send_reply=True)

    # -- commit -----------------------------------------------------------------------

    def on_commit(self, replica: Any, src: str, message: Commit) -> None:
        if not replica.accepts_ordering_from(src, message.view, message.mode):
            return
        if not replica.verify_message(src, message):
            return
        if message.request is None:
            return
        # Even a replica that never saw the prepare can execute: the commit
        # comes from the trusted leader and carries the payload.
        slot = replica.fill_slot(
            message.sequence, message.digest, message.request, None, force=True
        )
        replica.finalize(slot, send_reply=False)
