"""The Dog mode: trusted primary, untrusted proxies (Section 5.2).

Normal-case flow (Algorithm 2):

1. the client sends its request to the trusted primary;
2. the primary assigns a sequence number and multicasts a signed
   ``PREPARE`` (carrying the request) to *all* replicas -- this is its only
   involvement, which is what off-loads the private cloud;
3. each of the 3m+1 public-cloud *proxies* multicasts a signed ``ACCEPT``
   to the other proxies;
4. a proxy with 2m+1 matching accepts (counting its own) multicasts a
   ``COMMIT`` to the other proxies, sends a signed ``INFORM`` to every
   passive replica (private cloud nodes and non-proxy public nodes),
   executes, and replies to the client;
5. a proxy that instead first gathers m+1 matching commits also commits;
6. passive replicas execute once they hold the primary's prepare plus 2m+1
   matching informs from different proxies.

Sequence numbers still come from the trusted primary, so the Dog mode keeps
the two-phase structure of the Lion mode while moving the quadratic message
exchange into the public cloud.

Dog's phases are its own, but the replica installs them the way it installs
Lion's and Peacock's: :class:`DogAgreement` declares the messages it
handles in ``handlers``.  The inform leg (step 6) is the replica's, shared
with Peacock.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.adaptive.evidence import EvidenceKind
from repro.core import messages as msgs
from repro.core.modes import Mode
from repro.smr.replica import request_digest

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.replica import SeeMoReReplica


class DogAgreement:
    """Agreement logic of the Dog mode."""

    mode = Mode.DOG
    #: The phase message classes this agreement handles, and the method for each.
    handlers = {msgs.Prepare: "on_prepare", msgs.Accept: "on_accept", msgs.Commit: "on_commit"}

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

    def record_proposal_vote(self, replica: "SeeMoReReplica", slot, digest: str) -> None:
        """The trusted primary casts no vote of its own: the 3m+1 proxies form the quorum."""

    # -- prepare / accept / commit (the inform leg is the replica's) ------------------

    def on_prepare(self, replica: "SeeMoReReplica", src: str, message: msgs.Prepare) -> None:
        if not replica.accepts_ordering_from(src, message.view, message.mode):
            return
        if not replica.verify_message(src, message):
            return
        if not replica.in_watermark_window(message.sequence):
            return
        if message.digest != request_digest(message.request):
            return

        # Trusted primary: adopt its assignment even over stale slot content.
        slot = replica.fill_slot(
            message.sequence, message.digest, message.request, message, force=True
        )
        replica.view_changes.start_request_timer()
        if not replica.is_proxy():
            # Passive replicas only log the request and wait for informs.
            return

        self._send_accept(replica, slot, message.digest)
        self._maybe_commit_from_accepts(replica, slot)

    def _send_accept(self, replica: "SeeMoReReplica", slot, digest: str) -> None:
        """A proxy's signed accept vote, counted locally and sent to the other proxies."""
        accept = msgs.Accept(
            view=replica.view,
            sequence=slot.sequence,
            digest=digest,
            replica_id=replica.node_id,
            mode=int(self.mode),
            signed=True,
        )
        accept.sign(replica.signer)
        slot.record_vote("accept", replica.node_id, digest)
        replica.multicast(replica.other_proxies(), accept)

    def reenter(self, replica: "SeeMoReReplica", slot, entry: msgs.PreparedEntry) -> None:
        if replica.is_proxy():
            self._send_accept(replica, slot, entry.digest)

    def on_accept(self, replica: "SeeMoReReplica", src: str, message: msgs.Accept) -> None:
        if not replica.is_proxy():
            return
        if not replica.valid_view(message.view):
            return
        if not replica.is_current_proxy(src):
            return
        # Proxies sign their accepts (Algorithm 2): an unsigned one is no vote.
        if not (message.signed and replica.verify_message(src, message)):
            return

        slot = replica.slots.slot(message.sequence)
        if slot.digest is not None and message.digest != slot.digest:
            # A same-view vote contradicting the trusted primary's prepare
            # can only come from a faulty proxy.
            replica.evidence.record(
                EvidenceKind.CONFLICTING_VOTE,
                suspect=src,
                detail=f"accept seq={message.sequence} view={message.view}",
            )
        slot.record_vote("accept", src, message.digest)
        if slot.digest is None or slot.request is None:
            # Still waiting for the primary's prepare; the vote is banked.
            return
        self._maybe_commit_from_accepts(replica, slot)

    def _maybe_commit_from_accepts(self, replica: "SeeMoReReplica", slot) -> None:
        if slot.committed or slot.digest is None or slot.request is None:
            return
        if slot.vote_count("accept") < replica.config.accept_quorum(self.mode):
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
        replica.multicast(replica.other_proxies(), commit)
        replica.send_informs(slot)
        replica.finalize(slot, send_reply=True)

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
        count = slot.record_vote("commit", src, message.digest)
        if slot.committed or slot.request is None or slot.digest != message.digest:
            return
        # A slow proxy catches up from m+1 matching commits by other proxies.
        if count >= replica.config.byzantine_tolerance + 1:
            replica.send_informs(slot)
            replica.finalize(slot, send_reply=True)
