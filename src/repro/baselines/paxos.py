"""A multi-Paxos-style crash fault-tolerant baseline ("CFT" in the paper).

The steady-state flow mirrors the optimized Paxos implementation inside
BFT-SMaRt that the paper uses as its CFT baseline:

1. the client sends its request to the leader (the primary of the view);
2. the leader assigns a sequence number and multicasts ``PREPARE``
   (phase 2a) to all replicas;
3. replicas acknowledge with ``ACCEPT`` (phase 2b) back to the leader;
4. the leader, once a quorum of f+1 (including itself) has accepted,
   multicasts a ``COMMIT`` carrying the request, executes, and replies to
   the client;
5. replicas execute on the leader's ``COMMIT``.

That is Lion's agreement, written once in
:class:`~repro.smr.leader.LeaderAgreement` and sent as the same ``Prepare``,
``Accept`` and ``Commit`` (mode 0), only unsigned: under the crash model,
pairwise-authenticated channels are sufficient, which is exactly why CFT
outperforms the Byzantine protocols in Figures 2 and 3.

Request intake, the commit entry, the request timer, the leader change and
catch-up are the skeleton's (:class:`~repro.smr.replica.ReplicaBase`,
:class:`~repro.baselines.replica.BaselineReplica`).  This module gives the
agreement's answers (unsigned, and the new leader re-proposes what the new
view lists; the replica's quorum is the configuration's
``agreement_quorum``) and answers the skeleton: nothing at or below its own
``last_executed`` is reported in a view change, every accepted value is
reported (any of them may have been chosen), and one suspicion is enough to
join (nobody lies in the crash model).
"""

from __future__ import annotations

from typing import Any, List

from repro.baselines.replica import BaselineReplica
from repro.smr.executor import ExecutionResult
from repro.smr.leader import LeaderAgreement
from repro.smr.slots import Slot


class _CftAgreement(LeaderAgreement):
    """Lion's agreement, unsigned, at the configuration's agreement quorum."""

    signs = False

    def reenter(self, replica: "PaxosReplica", slot: Slot, entry: Any) -> None:
        # The new leader re-proposes what the new view lists; a backup waits for it.
        if not replica.is_primary():
            return
        self.record_proposal_vote(replica, slot, entry.digest)
        prepare = self.ordering_message(replica, entry.sequence, entry.digest, entry.request)
        replica.multicast(replica.other_replicas(), prepare)


class PaxosReplica(BaselineReplica):
    """One replica of the CFT baseline."""

    agreement = _CftAgreement()

    # -- what the skeleton asks -------------------------------------------------------

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
