"""The primary-backup skeleton under the three baseline protocols.

Paxos, PBFT and S-UpRight differ in their agreement phases and agree on
everything around them, so :class:`BaselineReplica` writes the rest once:

* **request intake** — a cached reply is re-sent; a backup forwards the
  request to the primary and arms its request timer; the primary verifies
  the client's signature, refuses duplicates, allocates the next sequence
  number and hands ``(sequence, digest, request)`` to :meth:`_propose`;
* **commit** — :meth:`_finalize` commits a slot once, replies unless it
  holds a no-op, calls :meth:`_after_commit` and re-arms or stops the
  request timer;
* **view change** — a request timer that expires (or ``_join_threshold()``
  suspicions from others) sends a view-change message listing every slot
  above ``_floor()`` for which ``_is_prepared(slot)``; a new-view timer
  escalates to the next view if the collector stays silent; the new
  primary adds its own knowledge (every slot it has filled), fills holes
  with no-ops, and multicasts the new view; installing it force-fills each
  listed slot and hands the uncommitted ones to :meth:`_reenter`.

View-change and new-view messages are signed and verified iff the
configuration says replica messages are (``config.messages_are_signed``).
A protocol module states its phases and the four answers above.
"""

from __future__ import annotations

import logging
from typing import Any, Dict, List, Optional

from repro.baselines import messages as msgs
from repro.baselines.config import BaselineConfig
from repro.crypto.signatures import Signer, Verifier
from repro.net.costs import NodeCostModel
from repro.smr.executor import ExecutionResult
from repro.smr.messages import ProtocolMessage, Request
from repro.smr.replica import NOOP_CLIENT, ReplicaBase, noop_request, request_digest
from repro.smr.slots import Slot
from repro.smr.state_machine import StateMachine

_log = logging.getLogger(__name__)


class BaselineReplica(ReplicaBase):
    """One replica of a primary-backup baseline; subclasses add the agreement phases."""

    def __init__(
        self,
        node_id: str,
        runtime: Any,
        config: BaselineConfig,
        signer: Signer,
        verifier: Verifier,
        state_machine: StateMachine,
        cost_model: Optional[NodeCostModel] = None,
    ) -> None:
        if node_id not in config.replicas:
            raise ValueError(f"replica {node_id!r} is not part of the configuration")
        super().__init__(node_id, runtime, signer, verifier, state_machine, cost_model)
        self.config = config
        self.in_view_change = False
        self.next_sequence = 1
        self._assigned: Dict[tuple, int] = {}
        self._view_change_votes: Dict[int, Dict[str, msgs.BaselineViewChange]] = {}
        self._new_views_sent: set = set()
        self._active_target: Optional[int] = None
        self._request_timer = self.create_timer(self._on_request_timeout, "request-timeout")
        self._new_view_timer = self.create_timer(self._on_new_view_timeout, "new-view-timeout")
        self.view_changes_completed = 0

        self.register_handler(Request, self._on_request)
        self.register_handler(msgs.BaselineViewChange, self._on_view_change)
        self.register_handler(msgs.BaselineNewView, self._on_new_view)
        self._register_phases()

    # -- what a protocol states ------------------------------------------------

    def _register_phases(self) -> None:
        """Register the agreement phases' handlers and create their state."""
        raise NotImplementedError

    def _propose(self, sequence: int, digest: str, request: Request) -> None:
        """Primary: start agreement on ``request`` at the freshly allocated ``sequence``."""
        raise NotImplementedError

    def _reenter(self, slot: Slot, entry: msgs.BaselineEntry) -> None:
        """Restart agreement on an uncommitted slot a new view re-proposes."""
        raise NotImplementedError

    def _after_commit(self, executions: List[ExecutionResult]) -> None:
        """Checkpoint or garbage-collect after a commit executed ``executions``."""
        raise NotImplementedError

    def _floor(self) -> int:
        """The sequence at or below which this replica reports nothing in a view change."""
        raise NotImplementedError

    def _is_prepared(self, slot: Slot) -> bool:
        """Whether a filled slot may have committed somewhere and must survive the view."""
        raise NotImplementedError

    def _join_threshold(self) -> int:
        """Suspicions by distinct replicas that prove a view change is under way."""
        raise NotImplementedError

    # -- roles -------------------------------------------------------------------

    def current_primary(self) -> str:
        return self.config.primary_of_view(self.view)

    def is_primary(self) -> bool:
        return not self.in_view_change and self.current_primary() == self.node_id

    def other_replicas(self) -> List[str]:
        return self.config.other_replicas(self.node_id)

    def _signed(self, message: ProtocolMessage) -> ProtocolMessage:
        if self.config.messages_are_signed:
            message.sign(self.signer)
        return message

    def _verified(self, src: str, message: ProtocolMessage) -> bool:
        if not self.config.messages_are_signed:
            return True
        return message.signed and message.verify(self.verifier, expected_signer=src)

    # -- client requests -----------------------------------------------------------

    def _on_request(self, src: str, request: Request) -> None:
        if self.resend_cached_reply(request):
            return
        if not self.is_primary():
            primary = self.current_primary()
            if primary != self.node_id:
                self.send(primary, request)
            self.start_request_timer()
            return
        if not request.verify(self.verifier, expected_signer=request.client_id):
            return
        key = (request.client_id, request.timestamp)
        if key in self._assigned:
            return
        sequence = self.next_sequence
        self.next_sequence += 1
        self._assigned[key] = sequence
        self._propose(sequence, request_digest(request), request)

    # -- commit and the request timer ------------------------------------------------

    def _finalize(self, slot: Slot, send_reply: bool) -> None:
        if slot.request is None or slot.committed:
            return
        reply = send_reply and slot.request.client_id != NOOP_CLIENT
        executions = self.commit_slot(slot.sequence, slot.request, self.view, send_reply=reply)
        self._after_commit(executions)
        if self.slots.has_pending_proposal():
            self._request_timer.restart(self.config.request_timeout)
        else:
            self._request_timer.stop()

    def start_request_timer(self) -> None:
        """Arm the suspicion timer unless it is already running."""
        if not self._request_timer.active:
            self._request_timer.start(self.config.request_timeout)

    def _on_request_timeout(self) -> None:
        if self.crashed or self.in_view_change:
            return
        self._start_view_change(self.view + 1)

    # -- view change ---------------------------------------------------------------------

    def _view_change_message(self, target_view: int, collector: bool) -> msgs.BaselineViewChange:
        """This replica's state above its floor, for the collector of ``target_view``.

        What a replica sends lists the slots it holds prepared; what the
        collector adds on its own behalf lists every slot it has filled.
        """
        floor = self._floor()
        return self._signed(
            msgs.BaselineViewChange(
                new_view=target_view,
                replica_id=self.node_id,
                checkpoint_sequence=floor,
                prepared=[
                    msgs.BaselineEntry(
                        sequence=slot.sequence,
                        view=slot.view,
                        digest=slot.digest,
                        request=slot.request,
                    )
                    for slot in self.slots.slots_above(floor)
                    if slot.request is not None
                    and slot.digest is not None
                    and (collector or self._is_prepared(slot))
                ],
                signed=self.config.messages_are_signed,
            )
        )

    def _start_view_change(self, target_view: int) -> None:
        if self.in_view_change and self._active_target == target_view:
            return
        self.in_view_change = True
        self._active_target = target_view
        self._request_timer.stop()
        view_change = self._view_change_message(target_view, collector=False)
        self._view_change_votes.setdefault(target_view, {})[self.node_id] = view_change
        self.multicast(self.other_replicas(), view_change)
        self._new_view_timer.start(self.config.view_change_timeout)
        self._maybe_install_view(target_view)

    def _on_new_view_timeout(self) -> None:
        """The collector of the target view never produced a new view; escalate."""
        if not self.in_view_change or self._active_target is None:
            return
        self._start_view_change(self._active_target + 1)

    def _on_view_change(self, src: str, message: msgs.BaselineViewChange) -> None:
        if message.new_view <= self.view:
            return
        if not self._verified(src, message):
            return
        votes = self._view_change_votes.setdefault(message.new_view, {})
        votes[src] = message
        may_join = not self.in_view_change or (self._active_target or 0) < message.new_view
        if may_join and len(votes) >= self._join_threshold():
            self._start_view_change(message.new_view)
        self._maybe_install_view(message.new_view)

    def _maybe_install_view(self, target_view: int) -> None:
        if self.config.primary_of_view(target_view) != self.node_id:
            return
        if target_view in self._new_views_sent or target_view <= self.view:
            return
        votes = dict(self._view_change_votes.get(target_view, {}))
        if self.node_id not in votes:
            # The collector contributes its own knowledge even if its timer
            # never fired.
            votes[self.node_id] = self._view_change_message(target_view, collector=True)
        if len(votes) < self.config.agreement_quorum:
            return

        checkpoint_seq = max(vote.checkpoint_sequence for vote in votes.values())
        entries: Dict[int, msgs.BaselineEntry] = {}
        highest = checkpoint_seq
        for vote in votes.values():
            for entry in vote.prepared:
                if entry.sequence > checkpoint_seq:
                    entries.setdefault(entry.sequence, entry)
                    highest = max(highest, entry.sequence)
        prepares: List[msgs.BaselineEntry] = []
        for sequence in range(checkpoint_seq + 1, highest + 1):
            entry = entries.get(sequence)
            if entry is None:
                filler = noop_request(sequence)
                entry = msgs.BaselineEntry(
                    sequence=sequence,
                    view=target_view,
                    digest=request_digest(filler),
                    request=filler,
                )
            prepares.append(entry)
        new_view = self._signed(
            msgs.BaselineNewView(
                new_view=target_view,
                replica_id=self.node_id,
                checkpoint_sequence=checkpoint_seq,
                prepares=prepares,
                signed=self.config.messages_are_signed,
            )
        )
        self._new_views_sent.add(target_view)
        self.multicast(self.other_replicas(), new_view)
        self._install_view(new_view)

    def _on_new_view(self, src: str, message: msgs.BaselineNewView) -> None:
        if message.new_view <= self.view:
            return
        if src != self.config.primary_of_view(message.new_view):
            return
        if not self._verified(src, message):
            return
        self._install_view(message)

    def _install_view(self, message: msgs.BaselineNewView) -> None:
        view = self.view = message.new_view
        self.in_view_change = False
        self._active_target = None
        self._assigned.clear()
        self._request_timer.stop()
        self._new_view_timer.stop()
        self.view_changes_completed += 1
        _log.info("%s installed view %d (%s)", self.node_id, view, type(self).__name__)
        # Votes and sent-markers for views at or below this one can never
        # produce a new view again (both handlers refuse them).
        self._view_change_votes = {
            target: votes for target, votes in self._view_change_votes.items() if target > view
        }
        self._new_views_sent = {target for target in self._new_views_sent if target > view}

        highest = message.checkpoint_sequence
        for entry in message.prepares:
            highest = max(highest, entry.sequence)
            if entry.request is None:
                continue
            # New-view entries supersede whatever a (possibly equivocating)
            # old primary got this replica to tentatively accept.
            slot = self.fill_slot(entry.sequence, entry.digest, entry.request, entry, force=True)
            if not slot.committed:
                self._reenter(slot, entry)
        self.next_sequence = max(self.next_sequence, highest + 1, self.last_executed + 1)
        if any(not slot.committed for slot in self.slots.slots_above(self._floor())):
            self.start_request_timer()

    # -- introspection -------------------------------------------------------------------------

    def state_summary(self) -> Dict[str, Any]:
        summary = super().state_summary()
        summary.update(
            {
                "is_primary": self.is_primary() if not self.crashed else False,
                "view_changes": self.view_changes_completed,
            }
        )
        return summary
