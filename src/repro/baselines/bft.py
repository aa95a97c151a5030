"""PBFT-style Byzantine fault-tolerant baseline, parameterised by quorums.

The same agreement engine serves two of the paper's baselines:

* **BFT (PBFT)** with a :class:`~repro.baselines.config.PBFTConfig` —
  3f+1 replicas, prepare/commit quorums of 2f+1;
* **S-UpRight** with an :class:`~repro.baselines.config.UpRightConfig` —
  3m+2c+1 replicas, quorums of 2m+c+1, still running the pessimistic
  PBFT-like agreement because, unlike SeeMoRe, it does not know where the
  crash-only faults live.

Normal case: the primary multicasts a signed ``PRE-PREPARE``; every replica
multicasts a signed ``PREPARE``; once a replica holds a prepare certificate
it multicasts a signed ``COMMIT``; once it holds a commit certificate it
executes and replies to the client, which waits for f+1 (resp. m+1)
matching replies.  Every ``checkpoint_period`` executions a replica signs a
:class:`~repro.smr.messages.Checkpoint` over the state at that boundary; a
commit quorum of matching ones makes it stable and garbage collects below it.

Request intake, the commit entry, the checkpoint vote rule, the request
timer and the view change are the skeleton's
(:class:`~repro.smr.replica.ReplicaBase`,
:class:`~repro.baselines.replica.BaselineReplica`).  This module states the
three phases, when a checkpoint is sent, and its answers to the skeleton: nothing
at or below the stable checkpoint is reported in a view change, a slot is
reported once it holds a prepare certificate, joining takes one suspicion
more than there can be faulty replicas, and every replica re-enters a
re-proposed slot with a fresh prepare vote.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.baselines import messages as msgs
from repro.baselines.replica import BaselineReplica
from repro.smr.checkpointing import CheckpointManager
from repro.smr.executor import ExecutionResult
from repro.smr.messages import Checkpoint, Request
from repro.smr.replica import request_digest
from repro.smr.slots import Slot


class QuorumBFTReplica(BaselineReplica):
    """A PBFT-like replica whose quorum sizes come from its configuration."""

    def _register_phases(self) -> None:
        self.checkpoints = CheckpointManager(self.config.checkpoint_period)
        # (boundary, state digest) cut by the executor hook, sent after the slot's replies.
        self._unsent_checkpoints: List[Tuple[int, str]] = []
        self.executor.set_checkpoint_hook(self.config.checkpoint_period, self._cut)
        self.register_handler(msgs.BftPrePrepare, self._on_preprepare)
        self.register_handler(msgs.BftPrepare, self._on_prepare)
        self.register_handler(msgs.BftCommit, self._on_commit)
        self.register_handler(Checkpoint, self.on_checkpoint)

    # -- pre-prepare / prepare / commit ---------------------------------------------------

    def _propose(self, sequence: int, digest: str, request: Request) -> None:
        preprepare = msgs.BftPrePrepare(
            view=self.view, sequence=sequence, digest=digest, request=request
        )
        preprepare.sign(self.signer)
        slot = self.fill_slot(sequence, digest, request, preprepare)
        slot.record_vote("prepare", self.node_id, digest)
        self.multicast(self.other_replicas(), preprepare)

    def _on_preprepare(self, src: str, message: msgs.BftPrePrepare) -> None:
        if self.in_view_change or message.view != self.view:
            return
        if src != self.config.primary_of_view(message.view):
            return
        if not message.verify(self.verifier, expected_signer=src):
            return
        if message.digest != request_digest(message.request):
            return
        existing = self.slots.existing_slot(message.sequence)
        if (
            existing is not None
            and existing.digest is not None
            and existing.digest != message.digest
        ):
            return

        slot = self.fill_slot(message.sequence, message.digest, message.request, message)
        # The primary's pre-prepare counts as its prepare vote (as in PBFT).
        slot.record_vote("prepare", src, message.digest)
        self.view_changes.start_request_timer()
        self._send_prepare(slot, message.digest)

    def _send_prepare(self, slot: Slot, digest: str) -> None:
        prepare = msgs.BftPrepare(
            view=self.view, sequence=slot.sequence, digest=digest, replica_id=self.node_id
        )
        prepare.sign(self.signer)
        slot.record_vote("prepare", self.node_id, digest)
        self.multicast(self.other_replicas(), prepare)
        self._maybe_send_commit(slot)

    def _on_prepare(self, src: str, message: msgs.BftPrepare) -> None:
        if self.in_view_change or message.view != self.view:
            return
        if not message.verify(self.verifier, expected_signer=src):
            return
        slot = self.slots.slot(message.sequence)
        slot.record_vote("prepare", src, message.digest)
        self._maybe_send_commit(slot)

    def _maybe_send_commit(self, slot: Slot) -> None:
        if slot.digest is None or slot.request is None:
            return
        if slot.has_vote_from("commit", self.node_id):
            return
        if not self._is_prepared(slot):
            return
        commit = msgs.BftCommit(
            view=self.view, sequence=slot.sequence, digest=slot.digest, replica_id=self.node_id
        )
        commit.sign(self.signer)
        slot.record_vote("commit", self.node_id, slot.digest)
        self.multicast(self.other_replicas(), commit)
        self._maybe_commit(slot)

    def _on_commit(self, src: str, message: msgs.BftCommit) -> None:
        if self.in_view_change or message.view != self.view:
            return
        if not message.verify(self.verifier, expected_signer=src):
            return
        slot = self.slots.slot(message.sequence)
        slot.record_vote("commit", src, message.digest)
        self._maybe_commit(slot)

    def _maybe_commit(self, slot: Slot) -> None:
        if slot.committed or slot.digest is None or slot.request is None:
            return
        if slot.vote_count("commit") < self.config.commit_quorum:
            return
        self.finalize(slot, send_reply=True)

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

    def _reenter(self, slot: Slot, entry: msgs.BaselineEntry) -> None:
        self._send_prepare(slot, entry.digest)

    def _floor(self) -> int:
        return self.checkpoints.stable_sequence

    def _is_prepared(self, slot: Slot) -> bool:
        return slot.vote_count("prepare") >= self.config.agreement_quorum

    def join_threshold(self) -> int:
        return max(1, self.config.network_size - self.config.commit_quorum) + 1
