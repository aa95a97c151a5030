"""Checkpointing, garbage collection, and state transfer support.

Section 5.1 ("State Transfer"): checkpoints are generated periodically when
a request sequence number is divisible by the checkpoint period.  In the
Lion and Dog modes the *trusted primary's* signed checkpoint message alone
is a checkpoint certificate; in the Peacock mode (as in PBFT) a checkpoint
becomes stable once matching checkpoint messages from a quorum of proxies
are received.  A stable checkpoint lets the replica discard all protocol
messages at or below its sequence number.

The PBFT-style baselines certify checkpoints the Peacock way, so the vote
table and what a checkpoint signs (:func:`signed_state_digest`) live here,
below both ``core`` and ``baselines``.

A local checkpoint is an :class:`~repro.smr.executor.ExecutorCut`, whose
replies are materialized only when a state transfer is served.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.crypto.digest import digest
from repro.smr.executor import ExecutorCut


def signed_state_digest(next_sequence: int, state: Any) -> str:
    """What a checkpoint and a state-transfer response sign: the executor's position and state."""
    return digest({"next_sequence": next_sequence, "state": state})


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
        # Local executor cuts at checkpoint boundaries, kept for state transfer.
        self._cuts: Dict[int, ExecutorCut] = {}
        self.checkpoints_taken = 0
        self.garbage_collections = 0

    # -- local checkpoints ---------------------------------------------------

    def is_checkpoint_sequence(self, sequence: int) -> bool:
        return sequence > 0 and sequence % self.period == 0

    def record_local_checkpoint(self, sequence: int, state_digest: str, cut: ExecutorCut) -> None:
        """Store this replica's own checkpoint at ``sequence``."""
        self._cuts[sequence] = cut
        self.checkpoints_taken += 1
        # Keep only the two most recent local checkpoints.
        for old in sorted(self._cuts)[:-2]:
            del self._cuts[old]

    def snapshot_at(self, sequence: int) -> Optional[Dict[str, Any]]:
        cut = self._cuts.get(sequence)
        return None if cut is None else cut.snapshot()

    def latest_snapshot(self) -> Tuple[int, Optional[Dict[str, Any]]]:
        if not self._cuts:
            return 0, None
        sequence = max(self._cuts)
        return sequence, self._cuts[sequence].snapshot()

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
