"""The Peacock mode: untrusted primary, agreement in the public cloud (Section 5.3).

The agreement routine is PBFT among the 3m+1 public-cloud proxies, with the
two changes the paper describes:

* the primary multicasts its signed ``PRE-PREPARE`` (with the request) to
  *all* replicas, not only to the proxies, so every replica can execute once
  it learns the outcome;
* when a proxy commits, it sends a signed ``INFORM`` to every passive
  replica (private cloud nodes and non-proxy public nodes); passive replicas
  execute after m+1 matching informs.

The private cloud does not participate in the agreement at all, which is
exactly what makes the mode attractive when the private cloud is loaded or
far away; its trusted nodes return as *transferers* during view changes.
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


class PeacockStrategy(ModeStrategy):
    """Agreement logic of the Peacock mode."""

    mode = Mode.PEACOCK

    # -- roles ----------------------------------------------------------------

    def replies_to_client(self, replica: "SeeMoReReplica") -> bool:
        return replica.is_proxy()

    # -- request handling --------------------------------------------------------
    # Client requests enter through the replica's shared on_request:
    # the primary batches them and proposes via the hooks below.

    def ordering_message(self, replica, sequence, digest, payload):
        return msgs.PrePrepare(
            view=replica.view,
            sequence=sequence,
            digest=digest,
            request=payload,
            mode=int(self.mode),
        )

    def record_proposal_vote(self, replica, slot, digest):
        # As in PBFT, the primary's pre-prepare doubles as its prepare vote.
        slot.record_vote("prepare", replica.node_id, digest)

    # -- pre-prepare / prepare / commit (the inform leg is ModeStrategy's) -----------

    def on_preprepare(self, replica: "SeeMoReReplica", src: str, message: msgs.PrePrepare) -> None:
        if not replica.accepts_ordering_from(src, message.view, message.mode):
            return
        if not replica.verify_message(src, message):
            return
        if not replica.in_watermark_window(message.sequence):
            return
        if message.digest != request_digest(message.request):
            return

        existing = replica.slots.existing_slot(message.sequence)
        if (
            existing is not None
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

        slot = replica.fill_slot(message.sequence, message.digest, message.request, message)
        # As in PBFT, the primary's pre-prepare counts as its prepare vote:
        # the prepared certificate is the pre-prepare plus 2m matching
        # prepares from other proxies.
        slot.record_vote("prepare", src, message.digest)
        replica.view_changes.start_request_timer()
        if not replica.is_proxy():
            return

        self._send_prepare(replica, slot, message.digest)
        self._maybe_send_commit(replica, slot)

    def _send_prepare(self, replica: "SeeMoReReplica", slot, digest: str) -> None:
        """A proxy's signed prepare vote, counted locally and sent to the other proxies."""
        prepare = msgs.ProxyPrepare(
            view=replica.view,
            sequence=slot.sequence,
            digest=digest,
            replica_id=replica.node_id,
            mode=int(self.mode),
        )
        prepare.sign(replica.signer)
        slot.record_vote("prepare", replica.node_id, digest)
        replica.multicast(replica.other_proxies(), prepare)

    def reenter(self, replica: "SeeMoReReplica", slot, entry: msgs.PreparedEntry) -> None:
        if replica.is_proxy():
            self._send_prepare(replica, slot, entry.digest)

    def on_proxy_prepare(
        self, replica: "SeeMoReReplica", src: str, message: msgs.ProxyPrepare
    ) -> None:
        if not replica.is_proxy():
            return
        if not replica.valid_view(message.view):
            return
        if not replica.is_current_proxy(src):
            return
        if not replica.verify_message(src, message):
            return

        slot = replica.slots.slot(message.sequence)
        if slot.digest is not None and message.digest != slot.digest:
            # A same-view vote contradicting the slot's accepted assignment
            # proves Byzantine behaviour, but unlike Lion/Dog the
            # assignment here came from an *untrusted* primary: either the
            # voter lied or the primary equivocated, and this receiver
            # cannot tell which.  Record the event unattributed — it still
            # counts toward escalation, but never names an honest proxy.
            replica.evidence.record(
                EvidenceKind.CONFLICTING_VOTE,
                detail=f"proxy-prepare seq={message.sequence} view={message.view}: "
                f"{src} contradicts the accepted untrusted assignment",
            )
        slot.record_vote("prepare", src, message.digest)
        self._maybe_send_commit(replica, slot)

    def _maybe_send_commit(self, replica: "SeeMoReReplica", slot) -> None:
        if slot.digest is None or slot.request is None:
            return
        if slot.has_vote_from("commit", replica.node_id):
            return
        # Prepared: the pre-prepare plus 2m matching prepares from distinct
        # proxies (the proxy's own prepare counts).
        if slot.vote_count("prepare") < 2 * replica.config.byzantine_tolerance + 1:
            return

        commit = msgs.Commit(
            view=replica.view,
            sequence=slot.sequence,
            digest=slot.digest,
            replica_id=replica.node_id,
            mode=int(self.mode),
            request=None,
        )
        commit.sign(replica.signer)
        slot.record_vote("commit", replica.node_id, slot.digest)
        replica.multicast(replica.other_proxies(), commit)
        self._maybe_commit(replica, slot)

    def on_commit(self, replica: "SeeMoReReplica", src: str, message: msgs.Commit) -> None:
        if not replica.is_proxy():
            return
        if not replica.valid_view(message.view):
            return
        if not replica.is_current_proxy(src):
            return
        if not replica.verify_message(src, message):
            return

        slot = replica.slots.slot(message.sequence)
        slot.record_vote("commit", src, message.digest)
        self._maybe_commit(replica, slot)

    def _maybe_commit(self, replica: "SeeMoReReplica", slot) -> None:
        if slot.committed or slot.digest is None or slot.request is None:
            return
        if slot.vote_count("commit") < replica.config.commit_quorum(self.mode):
            return
        self._send_informs(replica, slot)
        replica.finalize(slot, send_reply=True)
