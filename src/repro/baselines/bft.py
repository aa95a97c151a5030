"""PBFT-style Byzantine fault-tolerant baseline, parameterised by quorums.

The same agreement engine serves two of the paper's baselines:

* **BFT (PBFT)** with a :class:`~repro.baselines.config.PBFTConfig` —
  3f+1 replicas, prepare/commit quorums of 2f+1;
* **S-UpRight** with an :class:`~repro.baselines.config.UpRightConfig` —
  3m+2c+1 replicas, quorums of 2m+c+1, still running the pessimistic
  PBFT-like agreement because, unlike SeeMoRe, it does not know where the
  crash-only faults live.

Normal case: PBFT's pre-prepare / prepare / commit among every replica,
written once with SeeMoRe's Peacock mode in
:class:`~repro.smr.pbft.PbftAgreement` and sent as the same ``PrePrepare``,
``ProxyPrepare`` and ``Commit`` (mode 0); the client waits for f+1 (resp.
m+1) matching replies.  Every ``checkpoint_period`` executions a replica
signs a :class:`~repro.smr.messages.Checkpoint` over the state at that
boundary; a commit quorum of matching ones makes it stable and garbage
collects below it.

Request intake, the commit entry, the checkpoint vote rule, the request
timer, the view change and catch-up are the skeleton's
(:class:`~repro.smr.replica.ReplicaBase`,
:class:`~repro.baselines.replica.BaselineReplica`).  This module gives the
agreement's answers (every replica takes part and votes; the replica's
quorums are the configuration's), says when a checkpoint is sent, and answers
the skeleton: nothing at or below the stable checkpoint is reported in a
view change, a slot is reported once it holds a prepare certificate,
joining takes one suspicion more than there can be faulty replicas, and
every replica re-enters a re-proposed slot with a fresh prepare vote.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.baselines.replica import BaselineReplica
from repro.smr.checkpointing import CheckpointManager
from repro.smr.executor import ExecutionResult
from repro.smr.messages import Checkpoint
from repro.smr.pbft import PbftAgreement
from repro.smr.slots import Slot


class _BaselineAgreement(PbftAgreement):
    """PBFT among every replica of the configuration, at its commit quorum."""

    def counts_vote_from(self, replica: "QuorumBFTReplica", src: str) -> bool:
        return src in replica.config.replicas

    def peers(self, replica: "QuorumBFTReplica") -> List[str]:
        return replica.other_replicas()


class QuorumBFTReplica(BaselineReplica):
    """A PBFT-like replica whose quorum sizes come from its configuration."""

    agreement = _BaselineAgreement()

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.checkpoints = CheckpointManager(self.config.checkpoint_period)
        # (boundary, state digest) cut by the executor hook, sent after the slot's replies.
        self._unsent_checkpoints: List[Tuple[int, str]] = []
        self.executor.set_checkpoint_hook(self.config.checkpoint_period, self._cut)
        self.register_handler(Checkpoint, self.on_checkpoint)

    # -- checkpoints ---------------------------------------------------------------------

    def _cut(self, sequence: int) -> None:
        self._unsent_checkpoints.append((sequence, self.cut_checkpoint(sequence)))

    def _after_commit(self, sequence: int, executions: List[ExecutionResult]) -> None:
        for boundary, state_digest in self._unsent_checkpoints:
            self.send_checkpoint(boundary, state_digest)
        self._unsent_checkpoints.clear()

    def checkpoint_quorum(self, voter: str, mode: int) -> int:
        return self.config.commit_quorum

    # -- what the skeleton asks -------------------------------------------------------------

    def _floor(self) -> int:
        return self.checkpoints.stable_sequence

    def _is_prepared(self, slot: Slot) -> bool:
        return slot.vote_count("prepare") >= self.quorum

    def join_threshold(self) -> int:
        return max(1, self.config.network_size - self.config.commit_quorum) + 1
