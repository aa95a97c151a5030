"""Checkpointing, garbage collection, and state transfer support.

Section 5.1 ("State Transfer"): checkpoints are generated periodically when
a request sequence number is divisible by the checkpoint period.  In the
Lion and Dog modes the *trusted primary's* signed checkpoint message alone
is a checkpoint certificate; in the Peacock mode (as in PBFT) a checkpoint
becomes stable once matching checkpoint messages from a quorum of proxies
are received.  A stable checkpoint lets the replica discard all protocol
messages at or below its sequence number.

The PBFT-style baselines certify checkpoints the Peacock way, so the vote
table lives here, below both ``core`` and ``baselines``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple


@dataclass
class StableCheckpoint:
    """The most recent checkpoint this replica knows to be stable."""

    sequence: int = 0
    state_digest: str = ""


class CheckpointManager:
    """Tracks locally produced and remotely certified checkpoints."""

    def __init__(self, period: int) -> None:
        if period < 1:
            raise ValueError(f"checkpoint period must be >= 1, got {period}")
        self.period = period
        self.stable = StableCheckpoint()
        # Checkpoint votes seen so far: sequence -> digest -> set of replicas.
        self._votes: Dict[int, Dict[str, set]] = {}
        # Local snapshots at checkpoint boundaries, kept for state transfer.
        self._snapshots: Dict[int, Any] = {}
        self.checkpoints_taken = 0
        self.garbage_collections = 0

    # -- local checkpoints ---------------------------------------------------

    def is_checkpoint_sequence(self, sequence: int) -> bool:
        return sequence > 0 and sequence % self.period == 0

    def record_local_checkpoint(self, sequence: int, state_digest: str, snapshot: Any) -> None:
        """Store this replica's own checkpoint at ``sequence``."""
        self._snapshots[sequence] = snapshot
        self.checkpoints_taken += 1
        # Keep only the two most recent local snapshots.
        for old in sorted(self._snapshots)[:-2]:
            del self._snapshots[old]

    def snapshot_at(self, sequence: int) -> Optional[Any]:
        return self._snapshots.get(sequence)

    def latest_snapshot(self) -> Tuple[int, Optional[Any]]:
        if not self._snapshots:
            return 0, None
        sequence = max(self._snapshots)
        return sequence, self._snapshots[sequence]

    # -- certification ---------------------------------------------------------

    def record_vote(self, sequence: int, state_digest: str, replica_id: str) -> int:
        """Record a checkpoint message and return the matching vote count."""
        by_digest = self._votes.setdefault(sequence, {})
        voters = by_digest.setdefault(state_digest, set())
        voters.add(replica_id)
        return len(voters)

    def vote_count(self, sequence: int, state_digest: str) -> int:
        return len(self._votes.get(sequence, {}).get(state_digest, set()))

    def mark_stable(self, sequence: int, state_digest: str) -> bool:
        """Advance the stable checkpoint; returns True if it moved forward."""
        if sequence <= self.stable.sequence:
            return False
        self.stable = StableCheckpoint(sequence=sequence, state_digest=state_digest)
        self.garbage_collections += 1
        stale_votes = [seq for seq in self._votes if seq <= sequence]
        for seq in stale_votes:
            del self._votes[seq]
        return True

    @property
    def stable_sequence(self) -> int:
        return self.stable.sequence

    @property
    def stable_digest(self) -> str:
        return self.stable.state_digest
