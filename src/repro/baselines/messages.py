"""Protocol messages used by the baseline protocols.

Paxos messages are unsigned (crash model: channel MACs suffice).  PBFT and
S-UpRight send the signed ``PrePrepare`` / ``ProxyPrepare`` / ``Commit``
and ``Checkpoint`` of :mod:`repro.smr.messages` (mode 0), which they share
with SeeMoRe; the view-change messages here are signed iff the
configuration says so, matching how the original protocols are deployed
and how the paper's cost comparison counts cryptographic work.

Each class is one declaration (see :mod:`repro.smr.messages`).
"""

from __future__ import annotations

from repro.smr.messages import ProtocolMessage, _DIGEST_BYTES, _HEADER_BYTES, _SIGNED_BYTES
from repro.wire.codec import DIGEST, ENTRIES, I64, PAYLOAD, STR, Entry, Field

_SLOT = (Field("view", I64), Field("sequence", I64), Field("digest", DIGEST))
_PROPOSAL = _SLOT + (Field("request", PAYLOAD),)
_REPLICA = Field("replica_id", STR)
_VOTE = _SLOT + (_REPLICA,)


# -- Paxos (crash fault tolerant) ------------------------------------------------


class AcceptRequest(ProtocolMessage):
    """Leader -> replicas: order ``request`` at ``sequence`` (phase 2a)."""

    TAG = 0x20
    FIELDS = _PROPOSAL
    SIGNED = False
    SIZE = _HEADER_BYTES + _DIGEST_BYTES


class Accepted(ProtocolMessage):
    """Replica -> leader: acknowledgement of an AcceptRequest (phase 2b)."""

    TAG = 0x21
    FIELDS = _VOTE
    SIGNED = False
    SIZE = _HEADER_BYTES + _DIGEST_BYTES


class Learn(ProtocolMessage):
    """Leader -> replicas: the value at ``sequence`` is chosen; execute it."""

    TAG = 0x22
    FIELDS = _PROPOSAL
    SIGNED = False
    SIZE = _HEADER_BYTES + _DIGEST_BYTES


# -- shared: view changes ---------------------------------------------------------


#: Per-sequence entry carried in view-change / new-view messages.
BaselineEntry = Entry


class BaselineViewChange(ProtocolMessage):
    """Replica -> all: the primary of the current view is suspected."""

    TAG = 0x27
    FIELDS = (
        Field("new_view", I64),
        _REPLICA,
        Field("checkpoint_sequence", I64),
        Field("prepared", ENTRIES, list),
    )
    SIZE = _SIGNED_BYTES


class BaselineNewView(ProtocolMessage):
    """New primary -> all: install the new view and re-propose pending slots."""

    TAG = 0x28
    FIELDS = (
        Field("new_view", I64),
        _REPLICA,
        Field("checkpoint_sequence", I64),
        Field("prepares", ENTRIES, list),
    )
    SIZE = _SIGNED_BYTES


__all__ = [
    "AcceptRequest",
    "Accepted",
    "Learn",
    "BaselineEntry",
    "BaselineViewChange",
    "BaselineNewView",
]
