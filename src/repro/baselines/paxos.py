"""A multi-Paxos-style crash fault-tolerant baseline ("CFT" in the paper).

The steady-state flow mirrors the optimized Paxos implementation inside
BFT-SMaRt that the paper uses as its CFT baseline:

1. the client sends its request to the leader (the primary of the view);
2. the leader assigns a sequence number and multicasts ``ACCEPT-REQUEST``
   (phase 2a) to all replicas;
3. replicas acknowledge with ``ACCEPTED`` (phase 2b) back to the leader;
4. the leader, once a quorum of f+1 (including itself) has accepted,
   multicasts ``LEARN``, executes, and replies to the client;
5. replicas execute on ``LEARN``.

Messages are unsigned: under the crash model, pairwise-authenticated
channels are sufficient, which is exactly why CFT outperforms the Byzantine
protocols in Figures 2 and 3.

Request intake, the commit entry, the request timer and the leader change
are the skeleton's (:class:`~repro.smr.replica.ReplicaBase`,
:class:`~repro.baselines.replica.BaselineReplica`).  This module states the
three phases and Paxos's answers to the skeleton: nothing at or below its
own ``last_executed`` is reported in a view change, every accepted value is
reported (any of them may have been chosen), one suspicion is enough to
join (nobody lies in the crash model), and the new leader re-proposes what
the new view lists.
"""

from __future__ import annotations

from typing import List

from repro.baselines import messages as msgs
from repro.baselines.replica import BaselineReplica
from repro.smr.executor import ExecutionResult
from repro.smr.messages import Request
from repro.smr.slots import Slot


class PaxosReplica(BaselineReplica):
    """One replica of the CFT baseline."""

    def _register_phases(self) -> None:
        self.register_handler(msgs.AcceptRequest, self._on_accept_request)
        self.register_handler(msgs.Accepted, self._on_accepted)
        self.register_handler(msgs.Learn, self._on_learn)

    # -- phase 2a / 2b / learn ------------------------------------------------------

    def _propose(self, sequence: int, digest: str, request: Request) -> None:
        accept_request = msgs.AcceptRequest(
            view=self.view, sequence=sequence, digest=digest, request=request
        )
        slot = self.fill_slot(sequence, digest, request, accept_request)
        slot.record_vote("accepted", self.node_id, digest)
        self.multicast(self.other_replicas(), accept_request)

    def _on_accept_request(self, src: str, message: msgs.AcceptRequest) -> None:
        if self.in_view_change or message.view != self.view:
            return
        if src != self.config.primary_of_view(message.view):
            return
        # Nobody lies in the crash model: the leader's assignment replaces
        # whatever a deposed leader left in the slot.
        self.fill_slot(message.sequence, message.digest, message.request, message, force=True)
        accepted = msgs.Accepted(
            view=message.view,
            sequence=message.sequence,
            digest=message.digest,
            replica_id=self.node_id,
        )
        self.send(src, accepted)
        self.view_changes.start_request_timer()

    def _on_accepted(self, src: str, message: msgs.Accepted) -> None:
        if not self.is_primary() or message.view != self.view:
            return
        slot = self.slots.existing_slot(message.sequence)
        if slot is None or slot.committed or slot.digest != message.digest:
            return
        count = slot.record_vote("accepted", src, message.digest)
        if count < self.config.agreement_quorum:
            return
        learn = msgs.Learn(
            view=self.view, sequence=slot.sequence, digest=slot.digest, request=slot.request
        )
        self.multicast(self.other_replicas(), learn)
        self.finalize(slot, send_reply=True)

    def _on_learn(self, src: str, message: msgs.Learn) -> None:
        if message.view < self.view:
            return
        if src != self.config.primary_of_view(message.view):
            return
        slot = self.fill_slot(message.sequence, message.digest, message.request, None, force=True)
        self.finalize(slot, send_reply=False)

    # -- what the skeleton asks -------------------------------------------------------

    def _reenter(self, slot: Slot, entry: msgs.BaselineEntry) -> None:
        if not self.is_primary():
            return
        slot.record_vote("accepted", self.node_id, entry.digest)
        accept_request = msgs.AcceptRequest(
            view=self.view, sequence=entry.sequence, digest=entry.digest, request=entry.request
        )
        self.multicast(self.other_replicas(), accept_request)

    def _after_commit(self, sequence: int, executions: List[ExecutionResult]) -> None:
        executed = self.last_executed
        if executed and executed % self.config.checkpoint_period == 0:
            self.slots.collect_below(executed - self.config.checkpoint_period)
            self.prune_assignments(executed - self.config.checkpoint_period)

    def _floor(self) -> int:
        return self.last_executed

    def _is_prepared(self, slot: Slot) -> bool:
        return True

    def join_threshold(self) -> int:
        return 1
