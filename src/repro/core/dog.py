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

That is PBFT's prepare round among the proxies: the primary is trusted, so
nobody needs a second round to rule out an equivocating one.  The phases
are :class:`~repro.smr.pbft.PbftAgreement`'s, run with Peacock's answers
(the current proxies vote, 2m+1 accepts prepare a slot, a prepare must fall
in the watermark window, a committing proxy sends its informs) on Dog's own
messages, with a trusted primary, which casts no vote, and Table 1's m+1
matching commits to catch a proxy up.
"""

from __future__ import annotations

from repro.core import messages as msgs
from repro.core.modes import Mode
from repro.core.peacock import PeacockAgreement


class DogAgreement(PeacockAgreement):
    """Agreement logic of the Dog mode."""

    mode = Mode.DOG
    # Its own vote key: a switch to Peacock keeps a re-proposed slot's votes,
    # and a Dog accept is no Peacock prepare.
    preprepare_class, prepare_class, prepare_phase = msgs.Prepare, msgs.Accept, "accept"
    handlers = {
        msgs.Prepare: "on_preprepare",
        msgs.Accept: "on_proxy_prepare",
        msgs.Commit: "on_commit",
    }
    trusted_primary = True
