"""SeeMoRe protocol messages (Section 5, Algorithms 1 and 2).

Message flavours and who signs what follow the paper:

* ``PREPARE`` / ``COMMIT`` from the trusted primary (Lion; Dog's
  ``PREPARE``) are signed (they may later serve as proofs during view
  changes) and carry the client request so lagging replicas can execute.
* ``ACCEPT`` is unsigned in the Lion mode (it only flows back to the
  trusted primary); Dog's proxies run PBFT's votes (:mod:`repro.smr.pbft`)
  as a signed ``ACCEPT`` and ``COMMIT``.
* the Peacock mode runs PBFT's ``PRE-PREPARE`` / ``PREPARE`` / ``COMMIT``
  phases among proxies, all signed (:mod:`repro.smr.pbft`; the bft and
  s-upright baselines send the same three messages).
* ``INFORM`` messages notify passive replicas of committed requests.
* ``VIEW-CHANGE``, ``NEW-VIEW``, and ``MODE-CHANGE`` drive liveness and
  dynamic mode switching.

``CHECKPOINT``, ``NEW-VIEW``, the state transfer pair, the leader
agreement's ``PREPARE`` / ``ACCEPT`` / ``COMMIT`` (Lion's, which Paxos sends
unsigned) and PBFT's ``PRE-PREPARE`` / ``PREPARE`` (:class:`ProxyPrepare`) /
``COMMIT`` are shared with the baselines, so they are declared in
:mod:`repro.smr.messages` and re-exported here.

Ordering messages carry one slot *payload*: either a bare client
:class:`~repro.smr.messages.Request` or a :class:`~repro.smr.messages.Batch`
of them (PBFT-style batching; see :mod:`repro.core.batching`).  The digest
in every ordering/vote message covers the whole payload, so agreement,
view changes, and safety checks treat a batch exactly like one request; the
payload itself rides unsigned beside the frame.

Each class is one declaration (see :mod:`repro.smr.messages`).
"""

from __future__ import annotations

from repro.smr.messages import (
    Accept,
    Batch,
    Checkpoint,
    Commit,
    NewView,
    PrePrepare,
    Prepare,
    ProtocolMessage,
    ProxyPrepare,
    StateTransferRequest,
    StateTransferResponse,
    requests_of,
    _ATTRIBUTED_VOTE,
    _MODE,
    _REPLICA,
    _SIGNED_BYTES,
    _SIGNED_VOTE_BYTES,
)
from repro.wire.codec import DIGEST, ENTRIES, I64, Entry, Field
from repro.wire.primitives import TAG_INFORM


class Inform(ProtocolMessage):
    """``<INFORM, v, n, d, r>_r`` — proxies notify passive replicas of a commit."""

    TAG = TAG_INFORM
    FIELDS = _ATTRIBUTED_VOTE
    ENCODER = "encode_attributed_vote"
    SIZE = _SIGNED_VOTE_BYTES


#: Per-sequence entry of view-change / new-view messages (payload attached).
PreparedEntry = Entry


class ViewChange(ProtocolMessage):
    """``<VIEW-CHANGE, v+1, n, ξ, P, C>`` sent when the primary is suspected."""

    TAG = 0x17
    FIELDS = (
        Field("new_view", I64),
        _MODE,
        _REPLICA,
        Field("checkpoint_sequence", I64),
        Field("checkpoint_digest", DIGEST),
        Field("prepared", ENTRIES, list),
        Field("committed", ENTRIES, list),
    )
    SIZE = _SIGNED_VOTE_BYTES


class ModeChange(ProtocolMessage):
    """``<MODE-CHANGE, v+1, pi'>_s`` from a trusted replica (Section 5.4)."""

    TAG = 0x19
    FIELDS = (Field("new_view", I64), Field("new_mode", I64), _REPLICA)
    SIZE = _SIGNED_BYTES


__all__ = [
    "Batch",
    "requests_of",
    "Prepare",
    "Accept",
    "Commit",
    "PrePrepare",
    "ProxyPrepare",
    "Inform",
    "Checkpoint",
    "PreparedEntry",
    "ViewChange",
    "NewView",
    "ModeChange",
    "StateTransferRequest",
    "StateTransferResponse",
]
