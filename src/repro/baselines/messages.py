"""The one message only the baseline protocols send: their view change.

Every other message a baseline sends is SeeMoRe's, declared in
:mod:`repro.smr.messages` and sent with mode 0: Paxos runs Lion's
``Prepare`` / ``Accept`` / ``Commit`` unsigned, PBFT and S-UpRight
Peacock's signed ``PrePrepare`` / ``ProxyPrepare`` / ``Commit``, the BFT
baselines sign ``Checkpoint``, and all three install a view with
``NewView`` (no commits).  The view-change messages are signed iff the
configuration says so, matching how the original protocols are deployed and
how the paper's cost comparison counts cryptographic work.

The class is one declaration (see :mod:`repro.smr.messages`).
"""

from __future__ import annotations

from repro.smr.messages import ProtocolMessage, _SIGNED_BYTES
from repro.wire.codec import ENTRIES, I64, STR, Field


class BaselineViewChange(ProtocolMessage):
    """Replica -> all: the primary of the current view is suspected."""

    TAG = 0x27
    FIELDS = (
        Field("new_view", I64),
        Field("replica_id", STR),
        Field("checkpoint_sequence", I64),
        Field("prepared", ENTRIES, list),
    )
    SIZE = _SIGNED_BYTES


__all__ = ["BaselineViewChange"]
