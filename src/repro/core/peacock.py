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

The three phases are :class:`~repro.smr.pbft.PbftAgreement`'s, the same
code the bft and s-upright baselines run, installed the same way; this
module gives its answers: the current proxies take part and vote, a
pre-prepare must fall in the watermark window, and a committing proxy sends
its informs (the replica's inform leg).  The replica installs Table 1's
quorums for the mode with its roles (2m+1 matching votes prepare and commit
a Peacock slot).  The Dog mode runs the
same answers with a trusted primary (:mod:`repro.core.dog`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.core.modes import Mode
from repro.smr.pbft import PbftAgreement

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.replica import SeeMoReReplica
    from repro.smr.slots import Slot


class PeacockAgreement(PbftAgreement):
    """Agreement logic of the Peacock mode."""

    mode = Mode.PEACOCK

    # -- PBFT among the proxies: the agreement's answers --------------------------------
    # Client requests enter through the replica's shared on_request: the
    # primary batches them and proposes a PRE-PREPARE to every replica.

    def counts_vote_from(self, replica: "SeeMoReReplica", src: str) -> bool:
        return replica.is_current_proxy(src)

    def peers(self, replica: "SeeMoReReplica") -> List[str]:
        return replica.other_proxies()

    def admits(self, replica: "SeeMoReReplica", sequence: int) -> bool:
        return replica.in_watermark_window(sequence)

    def committing(self, replica: "SeeMoReReplica", slot: "Slot") -> None:
        replica.send_informs(slot)
