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

The phases are :class:`~repro.smr.leader.LeaderAgreement`'s, the same code
the cft baseline runs unsigned, installed the same way; this module gives
its answers: the leader signs, a prepare must fall in the watermark window,
and a new view's re-proposed slot gets the primary's own accept or a
backup's accept to it.  The replica installs the quorum with its roles:
2m+c+1 accepts commit a slot.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core import messages as msgs
from repro.core.modes import Mode
from repro.smr.leader import LeaderAgreement

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.replica import SeeMoReReplica


class LionAgreement(LeaderAgreement):
    """Agreement logic of the Lion mode."""

    mode = Mode.LION

    # -- the leader agreement's answers ------------------------------------------------
    # Client requests enter through the replica's shared on_request: the
    # primary batches them and proposes a signed PREPARE to every replica.

    def admits(self, replica: "SeeMoReReplica", sequence: int) -> bool:
        return replica.in_watermark_window(sequence)

    def reenter(self, replica: "SeeMoReReplica", slot, entry: msgs.PreparedEntry) -> None:
        if replica.is_primary():
            self.record_proposal_vote(replica, slot, entry.digest)
            return
        replica.send(replica.current_primary(), self.accept(replica, entry.sequence, entry.digest))
