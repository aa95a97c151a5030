"""The SeeMoRe replica engine.

A :class:`SeeMoReReplica` glues together:

* the shared SMR machinery (:class:`repro.smr.replica.ReplicaBase`):
  the request intake, the commit entry, ordered execution, ledger, slots,
  client replies and the checkpoint vote rule;
* the per-mode agreements (Lion / Dog / Peacock): ``set_mode`` installs
  the current mode's phase handlers with
  :meth:`~repro.smr.replica.ReplicaBase.install_agreement`, in place of the
  previous mode's, as the baselines install theirs at construction;
* what the modes do alike around them: the batcher through which a primary
  proposes, the inform leg between proxies and passive replicas (Dog and
  Peacock), and who replies to the client;
* who checkpoints in which mode, and whose state-transfer response counts;
* its answers to the shared view change (:mod:`repro.smr.view_change`),
  which a mode switch rides.

The replica itself is sans-IO with respect to time: all waiting is expressed
through the runtime's timers, and all communication goes through the node's
transport interface, so the same code runs under any latency/fault scenario
the experiment harness sets up — and under either runtime backend (the
deterministic simulator or the asyncio-TCP runtime).
"""

from __future__ import annotations

from typing import Any, Collection, Dict, List, Optional, Sequence

from repro.adaptive.evidence import EvidenceKind
from repro.core import messages as msgs
from repro.core.batching import Batcher
from repro.core.config import SeeMoReConfig
from repro.core.dog import DogAgreement
from repro.core.lion import LionAgreement
from repro.core.modes import Mode
from repro.core.peacock import PeacockAgreement
from repro.crypto.signatures import Signer, Verifier
from repro.smr.checkpointing import CheckpointManager
from repro.smr.executor import ExecutionResult
from repro.smr.messages import Busy, Request
from repro.smr.replica import ReplicaBase
from repro.smr.slots import Slot
from repro.smr.state_machine import StateMachine
from repro.smr.view_change import ViewChangeManager, reconcile


_AGREEMENTS: Dict[Mode, Any] = {
    Mode.LION: LionAgreement(),
    Mode.DOG: DogAgreement(),
    Mode.PEACOCK: PeacockAgreement(),
}


class SeeMoReReplica(ReplicaBase):
    """One replica of a SeeMoRe replica group."""

    def __init__(
        self,
        node_id: str,
        runtime: Any,
        config: SeeMoReConfig,
        signer: Signer,
        verifier: Verifier,
        state_machine: StateMachine,
        initial_mode: Mode = Mode.LION,
    ) -> None:
        super().__init__(node_id, runtime, config.all_replicas, signer, verifier, state_machine)
        self.config = config
        self.set_mode(initial_mode)
        self.watermark_window = 4 * config.checkpoint_period

        self.checkpoints = CheckpointManager(config.checkpoint_period)
        self.executor.set_checkpoint_hook(config.checkpoint_period, self._take_checkpoint)
        self.view_changes = ViewChangeManager(self)
        self.batcher = Batcher(
            config.batch_policy,
            timer_factory=lambda callback: self.create_timer(callback, "batch-linger"),
            propose=self._propose_payload,
            clock=lambda: self.now,
        )
        self.busy_rejects_sent = 0
        self._register_handlers()

    def _register_handlers(self) -> None:
        self.register_handler(msgs.Inform, self.on_inform)
        self.register_handler(msgs.Checkpoint, self.on_checkpoint)
        self.register_handler(msgs.ViewChange, self.view_changes.on_view_change)
        self.register_handler(msgs.NewView, self.view_changes.on_new_view)
        self.register_handler(msgs.ModeChange, self._on_mode_change)

    # -- roles ------------------------------------------------------------------

    def install_roles(self) -> None:
        """The primary, the proxies and the multicast targets of the current view and mode.

        Callers treat the target lists as read-only.
        """
        view, mode, config, node_id = self.view, self.mode, self.config, self.node_id
        self.mode_id = int(mode)
        self._primary = config.primary_of_view(view, mode)
        proxies = self._proxies = config.proxy_set_of_view(view, mode)
        self._is_proxy = node_id in proxies
        self._other_proxies = [
            proxy for proxy in config.proxies_of_view(view, mode) if proxy != node_id
        ]
        self._inform_targets = [
            replica
            for replica in config.all_replicas
            if replica not in proxies and replica != node_id
        ]

    def other_proxies(self) -> List[str]:
        return self._other_proxies

    def inform_targets(self) -> List[str]:
        """Recipients of inform messages: the private cloud plus non-proxy
        public replicas (Section 5.2/5.3), excluding the sender itself."""
        return self._inform_targets

    def replies_to_client(self) -> bool:
        """Whether this replica replies to clients when it executes: Lion's
        primary, Dog's and Peacock's proxies."""
        return self.is_primary() if self.mode is Mode.LION else self.is_proxy()

    def set_mode(self, mode: Mode) -> None:
        """Adopt ``mode``, its roles and its agreement's phase handlers
        (at construction, and when a new view is installed)."""
        self.mode = mode
        self.install_roles()
        self.install_agreement(_AGREEMENTS[mode])

    # -- validation helpers ------------------------------------------------------

    def in_watermark_window(self, sequence: int) -> bool:
        low = self.slots.low_watermark
        return low < sequence <= low + self.watermark_window

    # -- sequence assignment (primary only) -----------------------------------------

    def allocate_sequence(self) -> Optional[int]:
        if self.in_view_change:
            return None
        candidate = self.next_sequence
        if candidate > self.slots.low_watermark + self.watermark_window:
            return None
        self.next_sequence += 1
        return candidate

    def order(self, request: Request) -> None:
        """Admission control, then the batcher, which proposes one slot per batch.

        With an admission policy (none in the paper's closed-loop setting) a
        saturated primary sheds the request instead: a signed ``Busy`` goes
        back to the client.
        """
        policy = self.config.admission
        if policy is not None:
            queued = self.batcher.queued
            in_flight = self.batcher.in_flight
            if policy.should_shed(queued, in_flight):
                busy = Busy(
                    mode=int(self.mode),
                    view=self.view,
                    timestamp=request.timestamp,
                    client_id=request.client_id,
                    replica_id=self.node_id,
                    queue_depth=queued + in_flight,
                )
                busy.sign(self.signer)
                self.send(request.client_id, busy)
                self.busy_rejects_sent += 1
                return
        self.batcher.enqueue(request)

    def _propose_payload(self, payload: Any) -> Optional[int]:
        """Batcher callback: order one slot payload (a request or a batch) as the primary.

        Returns the assigned sequence number, or ``None`` when this replica
        may not propose right now (not the primary — e.g. a demoted primary
        whose batcher pump fires after a view change — view change in
        progress, or watermark window full); the batcher keeps the payload
        queued in that case.
        """
        if not self.is_primary():
            return None
        sequence = self.allocate_sequence()
        if sequence is not None:
            self.propose(self.agreement, sequence, payload)
        return sequence

    # -- slots and commits -------------------------------------------------------------

    def _after_commit(self, sequence: int, executions: List[ExecutionResult]) -> None:
        self.batcher.on_slot_committed(sequence)

    # -- the inform leg (Dog and Peacock) ------------------------------------------------

    def send_informs(self, slot: Slot) -> None:
        """A committing proxy tells every passive replica the outcome."""
        inform = msgs.Inform(
            view=self.view,
            sequence=slot.sequence,
            digest=slot.digest,
            replica_id=self.node_id,
            mode=int(self.mode),
        )
        inform.sign(self.signer)
        targets = self.inform_targets()
        if targets:
            self.multicast(targets, inform)

    def on_inform(self, src: str, message: msgs.Inform) -> None:
        """A passive replica commits on a mode-specific quorum of matching informs.

        Lion has no proxies, so no inform passes the sender check there.
        """
        if self.is_proxy():
            return
        if not self.valid_view(message.view):
            return
        if not self.is_current_proxy(src):
            return
        if not self.verify_message(src, message):
            return

        slot = self.slots.slot(message.sequence)
        count = slot.record_vote("inform", src, message.digest)
        if slot.committed or slot.request is None:
            return
        if slot.digest is not None and slot.digest != message.digest:
            # Against a trusted primary's assignment the contradicting proxy
            # is provably faulty.  Against an untrusted one either the proxy
            # lied or the primary equivocated and this receiver cannot tell
            # which: the event still counts toward escalation, but never
            # names an honest proxy.
            self.evidence.record(
                EvidenceKind.CONFLICTING_VOTE,
                suspect=src if self.mode.has_trusted_primary else None,
                detail=f"inform seq={message.sequence} view={message.view} from {src}",
            )
            return
        if count >= self.config.inform_quorum(self.mode):
            self.finalize(slot, send_reply=False)

    # -- checkpointing -------------------------------------------------------------------

    def _take_checkpoint(self, sequence: int) -> None:
        """Executor hook: execution just crossed checkpoint boundary ``sequence``."""
        state_digest = self.cut_checkpoint(sequence)
        sends = self.is_primary() if self.mode.has_trusted_primary else self.is_proxy()
        if sends:
            self.send_checkpoint(sequence, state_digest)

    def checkpoint_quorum(self, voter: str, mode: int) -> int:
        """In Lion and Dog a trusted replica's signed checkpoint alone is a
        certificate; in Peacock (as in PBFT) 2m+1 matching public ones are.
        A mode id that names no mode counts as Peacock's."""
        if self.mode.has_trusted_primary or mode in (Mode.LION, Mode.DOG):
            return int(self.config.is_trusted(voter))
        if voter not in self.config.public_replicas:
            return 0
        return 2 * self.config.byzantine_tolerance + 1

    def _after_stable_checkpoint(self) -> None:
        # The advanced low watermark may re-open the sequence window for
        # proposals the batcher had to refuse earlier.
        self.batcher.pump()

    # -- the view change's answers (Sections 5.1 and 5.4) --------------------------------------

    def view_change_message(self, target_view: int, mode: int, collector: bool) -> msgs.ViewChange:
        """Every filled slot above the stable checkpoint: committed, or prepared
        (it holds its ordering message).  The collector reports the same."""
        checkpoint_seq = self.checkpoints.stable_sequence
        prepared: List[msgs.PreparedEntry] = []
        committed: List[msgs.PreparedEntry] = []
        for slot in self.slots.slots_above(checkpoint_seq):
            if slot.digest is None or slot.request is None:
                continue
            entry = msgs.PreparedEntry(
                sequence=slot.sequence, view=slot.view, digest=slot.digest, request=slot.request
            )
            if slot.committed:
                committed.append(entry)
            elif slot.ordering_message is not None:
                prepared.append(entry)
        view_change = msgs.ViewChange(
            new_view=target_view,
            mode=int(mode),
            replica_id=self.node_id,
            checkpoint_sequence=checkpoint_seq,
            checkpoint_digest=self.checkpoints.stable_digest,
            prepared=prepared,
            committed=committed,
        )
        view_change.sign(self.signer)
        return view_change

    def new_view_message(
        self, target_view: int, mode: int, votes: Sequence[msgs.ViewChange]
    ) -> msgs.NewView:
        """Lion commits outright what an accept quorum reports prepared."""
        promote_at = self.config.accept_quorum(Mode.LION) if mode == Mode.LION else None
        checkpoint_seq, commits, prepares = reconcile(votes, target_view, promote_at)
        new_view = msgs.NewView(
            new_view=target_view,
            mode=int(mode),
            replica_id=self.node_id,
            checkpoint_sequence=checkpoint_seq,
            prepares=prepares,
            commits=commits,
        )
        new_view.sign(self.signer)
        return new_view

    def view_collector(self, target_view: int, mode: int) -> str:
        """Who installs ``target_view``: the new primary, or the trusted transferer in Peacock."""
        if mode == Mode.PEACOCK:
            return self.config.transferer_of_view(target_view)
        return self.config.primary_of_view(target_view, Mode(mode))

    def view_change_voters(self, mode: int) -> Collection[str]:
        """All replicas in Lion; only the public cloud in Dog and Peacock, where
        the paper has the public cloud drive the view change (the trusted
        collector contributes its own knowledge)."""
        if mode == Mode.LION:
            return self.config.all_replicas
        return self.config.public_replicas

    def view_change_quorum(self, mode: int) -> int:
        return self.config.view_change_quorum(Mode(mode))

    def join_threshold(self) -> int:
        """m+1 replicas moving to a higher view include a correct one."""
        return self.config.byzantine_tolerance + 1

    def leave_view(self) -> None:
        self.batcher.pause()

    @property
    def protocol_label(self) -> str:
        return self.mode.name

    def enter_view(self, src: str, message: msgs.NewView, previous_view: int) -> None:
        """Adopt the new view's mode, replay its commits and re-propose its prepares."""
        mode = Mode(message.mode)
        # Evidence for the adaptive controller: a deliberate mode switch is
        # marked as such so the controller's own actions never read as
        # churn; a same-mode view change implicates the deposed primary.
        if mode is not self.mode:
            self.evidence.record(EvidenceKind.VIEW_CHANGE, detail="mode-switch")
        else:
            self.evidence.record(
                EvidenceKind.VIEW_CHANGE,
                suspect=self.config.primary_of_view(previous_view, self.mode),
                detail="suspected-primary",
            )
        # No proposals while the new view is installed: the commits replayed
        # below pump the batcher, and sequence numbers are only safe to hand
        # out again once bump_sequence_counter has run.  on_view_installed
        # (called last) resumes the batcher.
        self.batcher.pause()
        self.set_mode(mode)
        self.clear_assignments()

        highest = message.checkpoint_sequence
        for entry in message.commits:
            highest = max(highest, entry.sequence)
            if entry.request is None:
                continue
            slot = self.fill_slot(entry.sequence, entry.digest, entry.request, None, force=True)
            self.finalize(slot, send_reply=self.replies_to_client())

        for entry in message.prepares:
            highest = max(highest, entry.sequence)
            if entry.request is None:
                continue
            # Re-run agreement for a prepared-but-uncommitted slot.
            slot = self.fill_slot(entry.sequence, entry.digest, entry.request, entry, force=True)
            if not slot.committed:
                self.agreement.reenter(self, slot, entry)
                self.view_changes.start_request_timer()

        self.bump_sequence_counter(highest + 1)
        self.on_view_installed()

    def on_view_installed(self) -> None:
        """Re-home requests the batcher buffered across the view/mode change.

        Proposals from the old view are forgotten (the new-view message
        already re-proposed every uncommitted batch).  Requests that were
        still waiting in the batch buffer go through the request intake
        again: they re-enter the new primary's batcher or are forwarded to
        it, so a mode switch mid-batch loses nothing; the executor's reply
        cache keeps re-proposals exactly-once.
        """
        batcher = self.batcher
        batcher.reset_in_flight()
        if self.is_primary():
            batcher.adopt_in_flight(
                slot.sequence
                for slot in self.slots.uncommitted_slots()
                if slot.request is not None
            )
        for request in batcher.drain():
            self.on_request(self.node_id, request)
        batcher.resume()

    def _on_mode_change(self, src: str, message: msgs.ModeChange) -> None:
        """A trusted replica's ``MODE-CHANGE`` (Section 5.4): every replica starts
        a view change with the new mode pending."""
        if not self.config.is_trusted(src):
            return
        if not self.verify_message(src, message):
            return
        try:
            new_mode = Mode(message.new_mode)
        except ValueError:
            return
        if message.new_view <= self.view:
            return
        self.view_changes.start(new_mode=int(new_mode), target_view=message.new_view)

    # -- mode switching (public API) --------------------------------------------

    def request_mode_switch(self, new_mode: Mode) -> None:
        """Initiate a dynamic mode switch (Section 5.4).

        Only trusted replicas may initiate a switch; the paper has the
        primary (or transferer) of the next view send ``MODE-CHANGE``.
        """
        if not self.config.is_trusted(self.node_id):
            raise PermissionError(
                f"replica {self.node_id!r} is untrusted and may not initiate a mode switch"
            )
        if not isinstance(new_mode, Mode):
            new_mode = Mode(new_mode)
        mode_change = msgs.ModeChange(
            new_view=self.view + 1, new_mode=int(new_mode), replica_id=self.node_id
        )
        mode_change.sign(self.signer)
        self.multicast(self.other_replicas(), mode_change)
        self._on_mode_change(self.node_id, mode_change)

    # -- state transfer ------------------------------------------------------------

    def state_transfer_quorum(self, src: str) -> int:
        """A trusted replica's response alone; m+1 matching untrusted ones."""
        return 1 if self.config.is_trusted(src) else self.config.byzantine_tolerance + 1

    def _after_state_transfer(self) -> None:
        # Slots the snapshot jumped over committed without this replica ever
        # running finalize on them; release their pipeline slots.
        self.batcher.forget_in_flight_below(self.executor.last_executed)

    # -- introspection -----------------------------------------------------------

    def state_summary(self) -> Dict[str, Any]:
        summary = super().state_summary()
        summary.update(
            {
                "mode": self.mode.name,
                "is_proxy": not self.crashed and self.is_proxy(),
                "batches_proposed": self.batcher.batches_proposed,
                "mean_batch_size": round(self.batcher.mean_batch_size(), 2),
                "busy_rejects_sent": self.busy_rejects_sent,
            }
        )
        return summary
