"""Interface implemented by each SeeMoRe operating mode.

A strategy encodes the *agreement* flow of one mode: who orders requests,
who votes, what the quorums are, and who replies to the client.  The
replica (:class:`repro.core.replica.SeeMoReReplica`) owns all state and
delegates message handling to its current strategy; switching modes swaps
the strategy during a view change.

What the modes do alike is written here once: when the primary proposes
one slot payload (``propose_payload``, which the replica's batcher calls),
and the inform leg between proxies and passive replicas (``_send_informs``
/ ``on_inform``, Dog and Peacock; Lion has no proxies, so no inform passes
the sender check).  The request intake, the proposal itself and the commit
entry are the replica's (:class:`~repro.smr.replica.ReplicaBase`).  Dog
states its phases: its ordering message, its vote handlers, and
``reenter`` — the vote it casts for a slot that a new view re-proposes.
Lion's are the leader agreement's, written once with the CFT baseline in
:class:`~repro.smr.leader.LeaderAgreement`, and Peacock's are PBFT's,
written once with the BFT baselines in :class:`~repro.smr.pbft.PbftAgreement`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.adaptive.evidence import EvidenceKind
from repro.core.modes import Mode
from repro.core import messages as msgs

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.replica import SeeMoReReplica
    from repro.smr.slots import Slot


class ModeStrategy:
    """Agreement-phase behaviour of one SeeMoRe mode."""

    mode: Mode

    # -- normal case ---------------------------------------------------------

    def propose_payload(self, replica: "SeeMoReReplica", payload: Any) -> Optional[int]:
        """Order one slot payload (a request or a batch) as the primary.

        Returns the assigned sequence number, or ``None`` when this replica
        may not propose right now (not the primary — e.g. a demoted primary
        whose batcher pump fires after a view change — view change in
        progress, or watermark window full); the batcher keeps the payload
        queued in that case.
        """
        if not replica.is_primary():
            return None
        sequence = replica.allocate_sequence()
        if sequence is not None:
            replica.propose(self, sequence, payload)
        return sequence

    def ordering_message(
        self, replica: "SeeMoReReplica", sequence: int, digest: str, payload: Any
    ) -> msgs.ProtocolMessage:
        """Build the mode's ordering message (``PREPARE`` / ``PRE-PREPARE``)."""
        raise NotImplementedError

    def record_proposal_vote(self, replica: "SeeMoReReplica", slot: "Slot", digest: str) -> None:
        """Count the primary's own proposal toward the slot's first quorum."""

    def on_prepare(self, replica: "SeeMoReReplica", src: str, message: msgs.Prepare) -> None:
        """Handle the trusted primary's prepare (Lion and Dog modes)."""

    def on_accept(self, replica: "SeeMoReReplica", src: str, message: msgs.Accept) -> None:
        """Handle an accept vote."""

    def on_commit(self, replica: "SeeMoReReplica", src: str, message: msgs.Commit) -> None:
        """Handle a commit message."""

    def on_preprepare(self, replica: "SeeMoReReplica", src: str, message: msgs.PrePrepare) -> None:
        """Handle the untrusted primary's pre-prepare (Peacock mode only)."""

    def on_proxy_prepare(
        self, replica: "SeeMoReReplica", src: str, message: msgs.ProxyPrepare
    ) -> None:
        """Handle a PBFT-style prepare vote among proxies (Peacock mode only)."""

    def reenter(self, replica: "SeeMoReReplica", slot: "Slot", entry: msgs.PreparedEntry) -> None:
        """Cast this replica's vote for a slot the new view re-proposes.

        Called once per uncommitted ``prepares`` entry while a new view is
        installed, after the slot was force-filled.  Sends the vote and
        stops: quorums are evaluated when the other replicas' votes arrive.
        """
        raise NotImplementedError

    # -- the inform leg (Dog and Peacock) ------------------------------------------

    def _send_informs(self, replica: "SeeMoReReplica", slot: "Slot") -> None:
        """A committing proxy tells every passive replica the outcome."""
        inform = msgs.Inform(
            view=replica.view,
            sequence=slot.sequence,
            digest=slot.digest,
            replica_id=replica.node_id,
            mode=int(self.mode),
        )
        inform.sign(replica.signer)
        targets = replica.inform_targets()
        if targets:
            replica.multicast(targets, inform)

    def on_inform(self, replica: "SeeMoReReplica", src: str, message: msgs.Inform) -> None:
        """A passive replica commits on a mode-specific quorum of matching informs."""
        if replica.is_proxy():
            return
        if not replica.valid_view(message.view):
            return
        if not replica.is_current_proxy(src):
            return
        if not replica.verify_message(src, message):
            return

        slot = replica.slots.slot(message.sequence)
        count = slot.record_vote("inform", src, message.digest)
        if slot.committed or slot.request is None:
            return
        if slot.digest is not None and slot.digest != message.digest:
            # Against a trusted primary's assignment the contradicting proxy
            # is provably faulty.  Against an untrusted one either the proxy
            # lied or the primary equivocated and this receiver cannot tell
            # which: the event still counts toward escalation, but never
            # names an honest proxy.
            replica.evidence.record(
                EvidenceKind.CONFLICTING_VOTE,
                suspect=src if self.mode.has_trusted_primary else None,
                detail=f"inform seq={message.sequence} view={message.view} from {src}",
            )
            return
        if count >= replica.config.inform_quorum(self.mode):
            replica.finalize(slot, send_reply=False)

    # -- roles ----------------------------------------------------------------

    def replies_to_client(self, replica: "SeeMoReReplica") -> bool:
        """Whether this replica sends replies to clients when it executes."""
        raise NotImplementedError
