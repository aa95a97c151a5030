"""The Lion mode: trusted primary, all replicas participate (Section 5.1).

Normal-case flow (Algorithm 1):

1. the client sends its request to the trusted primary;
2. the primary assigns a sequence number and multicasts a signed
   ``PREPARE`` (carrying the request) to every replica;
3. every replica answers the primary with an unsigned ``ACCEPT``;
4. the primary, upon 2m+c accepts from different replicas (2m+c+1 counting
   itself), multicasts a signed ``COMMIT`` carrying the request, executes,
   and replies to the client;
5. replicas execute on receipt of the primary's ``COMMIT``.

Because the primary is trusted, no replica-to-replica phase is needed to
detect equivocation: two phases and a linear number of messages suffice.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.adaptive.evidence import EvidenceKind
from repro.core import messages as msgs
from repro.core.modes import Mode
from repro.core.strategy_base import ModeStrategy
from repro.smr.replica import request_digest

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.replica import SeeMoReReplica


class LionStrategy(ModeStrategy):
    """Agreement logic of the Lion mode."""

    mode = Mode.LION

    # -- roles ----------------------------------------------------------------

    def replies_to_client(self, replica: "SeeMoReReplica") -> bool:
        return replica.is_primary()

    # -- request handling --------------------------------------------------------
    # Client requests enter through the replica's shared on_request:
    # the primary batches them and proposes via the hooks below.

    def ordering_message(self, replica, sequence, digest, payload):
        return msgs.Prepare(
            view=replica.view,
            sequence=sequence,
            digest=digest,
            request=payload,
            mode=int(self.mode),
        )

    def record_proposal_vote(self, replica, slot, digest):
        # The primary's own accept counts toward the quorum of 2m+c+1.
        slot.record_vote("accept", replica.node_id, digest)

    # -- prepare / accept / commit --------------------------------------------------

    def on_prepare(self, replica: "SeeMoReReplica", src: str, message: msgs.Prepare) -> None:
        if not replica.accepts_ordering_from(src, message.view, message.mode):
            return
        if not replica.verify_message(src, message):
            return
        if not replica.in_watermark_window(message.sequence):
            return
        if message.digest != request_digest(message.request):
            return

        # The primary is trusted, so its assignment supersedes any stale
        # uncommitted content this slot may hold from an earlier view/mode.
        replica.fill_slot(message.sequence, message.digest, message.request, message, force=True)
        accept = msgs.Accept(
            view=message.view,
            sequence=message.sequence,
            digest=message.digest,
            replica_id=replica.node_id,
            mode=int(self.mode),
            signed=False,
        )
        replica.send(src, accept)
        replica.view_changes.start_request_timer()

    def reenter(self, replica: "SeeMoReReplica", slot, entry: msgs.PreparedEntry) -> None:
        if replica.is_primary():
            self.record_proposal_vote(replica, slot, entry.digest)
            return
        # The accept on_prepare sends, built again: a shared helper would put
        # a call frame on Lion's per-message path.
        accept = msgs.Accept(
            view=replica.view,
            sequence=entry.sequence,
            digest=entry.digest,
            replica_id=replica.node_id,
            mode=int(self.mode),
            signed=False,
        )
        replica.send(replica.current_primary(), accept)

    def on_accept(self, replica: "SeeMoReReplica", src: str, message: msgs.Accept) -> None:
        if not replica.is_primary():
            return
        if not replica.valid_view(message.view):
            return
        slot = replica.slots.existing_slot(message.sequence)
        if slot is None:
            return
        if slot.digest is not None and message.digest != slot.digest:
            # A same-view accept contradicting this trusted primary's own
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
        if count < replica.config.accept_quorum(self.mode):
            return

        commit = msgs.Commit(
            view=replica.view,
            sequence=message.sequence,
            digest=slot.digest,
            replica_id=replica.node_id,
            mode=int(self.mode),
            request=slot.request,
        )
        commit.sign(replica.signer)
        replica.multicast(replica.other_replicas(), commit)
        replica.finalize(slot, send_reply=True)

    def on_commit(self, replica: "SeeMoReReplica", src: str, message: msgs.Commit) -> None:
        if not replica.accepts_ordering_from(src, message.view, message.mode):
            return
        if not replica.verify_message(src, message):
            return
        if message.request is None:
            return
        # Even a replica that never saw the prepare can execute: the commit
        # comes from the trusted primary and carries the request.
        slot = replica.fill_slot(
            message.sequence, message.digest, message.request, None, force=True
        )
        if slot.committed:
            return
        replica.finalize(slot, send_reply=False)
