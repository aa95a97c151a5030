"""View changes and dynamic mode switching (Sections 5.1-5.4).

The view-change protocol provides liveness: when the primary of the current
view is suspected (a backup's timer expires before a prepared request
commits), replicas stop accepting ordering messages and send ``VIEW-CHANGE``
messages describing their latest stable checkpoint and the requests they
have prepared or committed above it.  A designated *collector* -- the new
primary in the Lion and Dog modes, the trusted *transferer* in the Peacock
mode -- gathers a quorum of them, reconciles the outcome per the rules of
Section 5.1, and installs the new view with a ``NEW-VIEW`` message.

Dynamic mode switching (Section 5.4) rides on the same machinery: a trusted
replica multicasts ``MODE-CHANGE``, every replica starts a view change with
the new mode pending, and the new view is installed under the new mode.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.adaptive.evidence import EvidenceKind
from repro.core import messages as msgs
from repro.core.modes import Mode
from repro.smr.replica import NOOP_CLIENT, noop_request, request_digest

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.replica import SeeMoReReplica

_log = logging.getLogger(__name__)


class ViewChangeManager:
    """Per-replica view-change and mode-switch state machine."""

    def __init__(self, replica: "SeeMoReReplica") -> None:
        self.replica = replica
        # (target_view, mode) -> sender -> ViewChange message
        self._store: Dict[Tuple[int, int], Dict[str, msgs.ViewChange]] = {}
        self._new_views_sent: set = set()
        self.active_target: Optional[int] = None
        self.pending_mode: Optional[Mode] = None
        self.view_changes_started = 0
        self.view_changes_completed = 0
        self._new_view_timer = replica.create_timer(self._on_new_view_timeout, "new-view-timeout")

    # -- initiating a view change -------------------------------------------------

    def start(self, new_mode: Optional[Mode] = None, target_view: Optional[int] = None) -> None:
        """Suspect the current primary and move toward a new view."""
        replica = self.replica
        if target_view is None:
            target_view = replica.view + 1
            if self.active_target is not None:
                target_view = max(target_view, self.active_target)
        if new_mode is not None:
            self.pending_mode = new_mode
        mode = self.pending_mode or replica.mode

        if self.active_target == target_view and replica.in_view_change:
            return
        self.active_target = target_view
        replica.in_view_change = True
        replica.stop_request_timer()
        replica.batcher.pause()
        self.view_changes_started += 1

        view_change = self.build_view_change_message(target_view, mode)
        self._record(view_change, replica.node_id)
        replica.multicast(replica.other_replicas(), view_change)
        self._new_view_timer.start(replica.config.view_change_timeout)
        self._maybe_build_new_view(target_view, mode)

    def build_view_change_message(self, target_view: int, mode: Mode) -> msgs.ViewChange:
        """Summarise this replica's state for the collector of ``target_view``."""
        replica = self.replica
        checkpoint_seq = replica.checkpoints.stable_sequence
        prepared: List[msgs.PreparedEntry] = []
        committed: List[msgs.PreparedEntry] = []
        for slot in replica.slots.slots_above(checkpoint_seq):
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
            replica_id=replica.node_id,
            checkpoint_sequence=checkpoint_seq,
            checkpoint_digest=replica.checkpoints.stable_digest,
            prepared=prepared,
            committed=committed,
        )
        view_change.sign(replica.signer)
        return view_change

    # -- handling mode changes ------------------------------------------------------

    def on_mode_change(self, src: str, message: msgs.ModeChange) -> None:
        """Handle a ``MODE-CHANGE`` from a trusted replica (Section 5.4)."""
        replica = self.replica
        if not replica.config.is_trusted(src):
            return
        if not replica.verify_message(src, message):
            return
        try:
            new_mode = Mode(message.new_mode)
        except ValueError:
            return
        if message.new_view <= replica.view:
            return
        self.start(new_mode=new_mode, target_view=message.new_view)

    # -- handling view-change messages ------------------------------------------------

    def on_view_change(self, src: str, message: msgs.ViewChange) -> None:
        replica = self.replica
        if message.new_view <= replica.view:
            return
        if not replica.verify_message(src, message):
            return
        if message.replica_id != src:
            return
        self._record(message, src)

        mode = Mode(message.mode)
        # Join rule: seeing m+1 distinct replicas already moving to a higher
        # view is proof enough that a view change is underway.
        key = (message.new_view, message.mode)
        if not replica.in_view_change or (self.active_target or 0) < message.new_view:
            distinct = len(self._store.get(key, {}))
            if distinct >= replica.config.byzantine_tolerance + 1:
                self.start(new_mode=mode if mode is not replica.mode else None,
                           target_view=message.new_view)
        self._maybe_build_new_view(message.new_view, mode)

    def _record(self, message: msgs.ViewChange, sender: str) -> None:
        key = (message.new_view, message.mode)
        self._store.setdefault(key, {})[sender] = message

    # -- collector: building the new view ------------------------------------------------

    def collector_for(self, target_view: int, mode: Mode) -> str:
        """Who installs ``target_view``: new primary, or transferer in Peacock."""
        config = self.replica.config
        if mode is Mode.PEACOCK:
            return config.transferer_of_view(target_view)
        return config.primary_of_view(target_view, mode)

    def _eligible_senders(self, mode: Mode) -> set:
        """Whose view-change messages count toward the quorum in ``mode``.

        All replicas in the Lion mode; only public-cloud replicas in the Dog
        and Peacock modes, where the paper has the public cloud drive the
        view change (the trusted collector contributes its own knowledge).
        """
        config = self.replica.config
        if mode is Mode.LION:
            return set(config.all_replicas)
        return set(config.public_replicas)

    def _quorum(self, mode: Mode) -> int:
        return self.replica.config.view_change_quorum(mode)

    def _maybe_build_new_view(self, target_view: int, mode: Mode) -> None:
        replica = self.replica
        if replica.node_id != self.collector_for(target_view, mode):
            return
        if (target_view, int(mode)) in self._new_views_sent:
            return
        if target_view <= replica.view:
            return

        key = (target_view, int(mode))
        received = dict(self._store.get(key, {}))
        # The collector always contributes its own local knowledge, even if
        # its own timer never expired.
        if replica.node_id not in received:
            received[replica.node_id] = self.build_view_change_message(target_view, mode)

        eligible_senders = self._eligible_senders(mode) | {replica.node_id}
        eligible = {s: m for s, m in received.items() if s in eligible_senders}
        if len(eligible) < self._quorum(mode):
            return

        new_view = self._build_new_view_message(target_view, mode, list(eligible.values()))
        self._new_views_sent.add(key)
        replica.multicast(replica.other_replicas(), new_view)
        self.enter_new_view(replica.node_id, new_view)

    def _build_new_view_message(
        self, target_view: int, mode: Mode, view_changes: List[msgs.ViewChange]
    ) -> msgs.NewView:
        replica = self.replica
        config = replica.config
        checkpoint_seq = max(vc.checkpoint_sequence for vc in view_changes)

        committed: Dict[int, msgs.PreparedEntry] = {}
        prepared_counts: Dict[Tuple[int, str], int] = {}
        prepared_entries: Dict[Tuple[int, str], msgs.PreparedEntry] = {}
        prepared_views: Dict[Tuple[int, str], int] = {}
        highest = checkpoint_seq
        for view_change in view_changes:
            for entry in view_change.committed:
                if entry.sequence > checkpoint_seq:
                    committed.setdefault(entry.sequence, entry)
                    highest = max(highest, entry.sequence)
            for entry in view_change.prepared:
                if entry.sequence <= checkpoint_seq:
                    continue
                key = (entry.sequence, entry.digest)
                prepared_counts[key] = prepared_counts.get(key, 0) + 1
                prepared_entries.setdefault(key, entry)
                prepared_views[key] = max(prepared_views.get(key, -1), entry.view)
                highest = max(highest, entry.sequence)

        commits: List[msgs.PreparedEntry] = []
        prepares: List[msgs.PreparedEntry] = []
        for sequence in range(checkpoint_seq + 1, highest + 1):
            if sequence in committed:
                commits.append(self._rewrap(committed[sequence], target_view))
                continue
            # Reconciliation rule (Section 5.1): among conflicting prepared
            # entries for a sequence, the one prepared in the *highest* view
            # wins — a later view's assignment supersedes whatever an older
            # (possibly deposed or equivocating) primary handed out.  Vote
            # count breaks ties within a view; the digest keeps the final
            # fallback deterministic across collectors.
            candidates = [
                (prepared_views[key], count, key)
                for key, count in prepared_counts.items()
                if key[0] == sequence
            ]
            if candidates:
                _view, count, key = max(candidates)
                entry = prepared_entries[key]
                if mode is Mode.LION and count >= config.accept_quorum(Mode.LION):
                    commits.append(self._rewrap(entry, target_view))
                else:
                    prepares.append(self._rewrap(entry, target_view))
            else:
                filler = noop_request(sequence)
                prepares.append(
                    msgs.PreparedEntry(
                        sequence=sequence,
                        view=target_view,
                        digest=request_digest(filler),
                        request=filler,
                    )
                )

        new_view = msgs.NewView(
            new_view=target_view,
            mode=int(mode),
            replica_id=replica.node_id,
            checkpoint_sequence=checkpoint_seq,
            prepares=prepares,
            commits=commits,
        )
        new_view.sign(replica.signer)
        return new_view

    @staticmethod
    def _rewrap(entry: msgs.PreparedEntry, target_view: int) -> msgs.PreparedEntry:
        return msgs.PreparedEntry(
            sequence=entry.sequence,
            view=target_view,
            digest=entry.digest,
            request=entry.request,
        )

    # -- installing the new view -----------------------------------------------------------

    def on_new_view(self, src: str, message: msgs.NewView) -> None:
        replica = self.replica
        if message.new_view <= replica.view:
            return
        mode = Mode(message.mode)
        if src != self.collector_for(message.new_view, mode):
            return
        if not replica.verify_message(src, message):
            return
        self.enter_new_view(src, message)

    def enter_new_view(self, src: str, message: msgs.NewView) -> None:
        replica = self.replica
        mode = Mode(message.mode)

        # Evidence for the adaptive controller: a deliberate mode switch is
        # marked as such so the controller's own actions never read as
        # churn; a same-mode view change implicates the deposed primary.
        old_view, old_mode = replica.view, replica.mode
        if mode is not old_mode:
            replica.evidence.record(
                EvidenceKind.VIEW_CHANGE,
                detail="mode-switch",
            )
        else:
            replica.evidence.record(
                EvidenceKind.VIEW_CHANGE,
                suspect=replica.config.primary_of_view(old_view, old_mode),
                detail="suspected-primary",
            )

        # No proposals while the new view is installed: the commits replayed
        # below pump the batcher, and sequence numbers are only safe to hand
        # out again once bump_sequence_counter has run.  on_view_installed
        # (called last) resumes the batcher.
        replica.batcher.pause()
        replica.view = message.new_view
        replica.set_mode(mode)
        replica.in_view_change = False
        self.pending_mode = None
        self.active_target = None
        self._prune_below(message.new_view)
        self._new_view_timer.stop()
        replica.stop_request_timer()
        replica.clear_assignments()
        self.view_changes_completed += 1
        _log.info("%s installed view %d in %s mode", replica.node_id, message.new_view, mode.name)

        # Catch up if the new view starts from a checkpoint we have not reached.
        if message.checkpoint_sequence > replica.last_executed and src != replica.node_id:
            replica.request_state_transfer(src, message.checkpoint_sequence)

        highest = message.checkpoint_sequence
        for entry in message.commits:
            highest = max(highest, entry.sequence)
            if entry.request is None:
                continue
            slot = replica.prepare_slot(
                entry.sequence, entry.digest, entry.request, None, force=True
            )
            if not slot.committed:
                send_reply = (
                    replica.strategy.replies_to_client(replica)
                    and entry.request.client_id != NOOP_CLIENT
                )
                replica.finalize_commit(slot, send_reply=send_reply)

        for entry in message.prepares:
            highest = max(highest, entry.sequence)
            if entry.request is None:
                continue
            replica.reprocess_prepare_entry(entry)

        replica.bump_sequence_counter(highest + 1)
        replica.on_view_installed()

    def _prune_below(self, installed_view: int) -> None:
        """Garbage-collect view-change state for views ≤ the installed view.

        Both ``_store`` and ``_new_views_sent`` are keyed by
        ``(target_view, mode)``; entries for views at or below the one just
        installed can never produce a new view again (``on_view_change`` and
        ``_maybe_build_new_view`` both refuse ``new_view <= replica.view``),
        so keeping them only leaks memory across the unbounded stream of
        view changes a long-running deployment performs.
        """
        self._store = {
            key: messages for key, messages in self._store.items() if key[0] > installed_view
        }
        self._new_views_sent = {key for key in self._new_views_sent if key[0] > installed_view}

    # -- timeouts ---------------------------------------------------------------------------

    def _on_new_view_timeout(self) -> None:
        """The collector of the target view never produced a new view; escalate."""
        replica = self.replica
        if not replica.in_view_change or self.active_target is None:
            return
        self.start(target_view=self.active_target + 1)

    # -- introspection -------------------------------------------------------------------------

    def pending_view_change_count(self, target_view: int, mode: Mode) -> int:
        return len(self._store.get((target_view, int(mode)), {}))
