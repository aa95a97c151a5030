"""The view change every agreement engine shares (Section 5.1; PBFT's, for the baselines).

The view change provides liveness: when a replica's request timer expires
before what it is waiting for commits, it suspects the primary, stops
ordering, and multicasts a view-change message describing its stable
checkpoint and the slots it holds above it.  A designated *collector*
gathers a quorum of them, reconciles them with :func:`reconcile`, and
installs the new view with a new-view message.  A new-view timer escalates
to the next view when the collector stays silent for twice the request
timeout, and seeing enough distinct replicas already moving to a higher
view makes a replica join.

:class:`ViewChangeManager` is that state machine, written once for SeeMoRe's
three modes and for Paxos, PBFT and S-UpRight.  Votes are kept per
``(target view, mode id)``; a SeeMoRe mode switch is a view change with a
new mode pending, and the baselines have one mode, id 0.  What differs
between protocols are the answers the replica gives:

* ``view_change_message(target_view, mode, collector)`` — its signed vote;
  ``collector`` is set when the collector adds its own knowledge;
* ``new_view_message(target_view, mode, votes)`` — the signed new view
  built from a quorum of ``votes`` (through :func:`reconcile`);
* ``view_collector(target_view, mode)``, ``view_change_voters(mode)``,
  ``view_change_quorum(mode)`` and ``join_threshold()`` — who collects,
  whose votes count (the collector's own always does), how many it needs,
  and how many suspicions make a replica join;
* ``verify_message(src, message)`` — whether a vote or new view is authentic;
* ``leave_view()`` — stop ordering in the view being left;
* ``install_roles()`` — the roles of the view just assigned;
* ``enter_view(src, message, previous_view)`` — the protocol's half of
  installing a view: re-proposing what the new view lists (a replica behind
  the new view's checkpoint has asked for it first, through
  :meth:`~repro.smr.replica.ReplicaBase.catch_up_to_view`);
* ``protocol_label`` — what the install log line names.
"""

from __future__ import annotations

import logging
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.adaptive.evidence import EvidenceKind
from repro.smr.replica import noop_request, request_digest
from repro.wire.codec import Entry

_log = logging.getLogger(__name__)


def _mode_of(carrier: Any) -> int:
    """The mode id a replica runs or a view message names (the baselines have none: 0)."""
    return int(getattr(carrier, "mode", 0))


def reconcile(
    votes: Sequence[Any], target_view: int, promote_at: Optional[int] = None
) -> Tuple[int, List[Entry], List[Entry]]:
    """The new view's checkpoint, commits and prepares, from a quorum of ``votes``.

    Every sequence above the highest reported checkpoint gets one entry,
    re-issued in ``target_view``.  A digest some vote reports committed
    wins.  Otherwise the digest prepared in the *highest* view wins — a
    later view's assignment supersedes whatever an older (possibly deposed
    or equivocating) primary handed out — then the one more votes report,
    then the greater digest, so every collector picks the same entry
    whatever order the votes arrived in.  A prepared entry that ``promote_at``
    or more votes report is committed outright (Lion's accept quorum).  A
    hole gets :func:`~repro.smr.replica.noop_request`.
    """
    checkpoint = max(vote.checkpoint_sequence for vote in votes)
    # sequence -> digest -> [reported committed, highest view, votes]
    ranks: Dict[int, Dict[str, list]] = {}
    entries: Dict[Tuple[int, str], Entry] = {}
    for vote in votes:
        # A baseline's vote reports prepared slots only.
        for committed, reported in ((True, getattr(vote, "committed", ())), (False, vote.prepared)):
            for entry in reported:
                if entry.sequence <= checkpoint:
                    continue
                rank = ranks.setdefault(entry.sequence, {}).setdefault(entry.digest, [False, -1, 0])
                rank[0] = rank[0] or committed
                rank[1] = max(rank[1], entry.view)
                rank[2] += 1
                entries.setdefault((entry.sequence, entry.digest), entry)

    commits: List[Entry] = []
    prepares: List[Entry] = []
    for sequence in range(checkpoint + 1, max(ranks, default=checkpoint) + 1):
        candidates = ranks.get(sequence)
        if not candidates:
            filler = noop_request(sequence)
            prepares.append(Entry(sequence, target_view, request_digest(filler), filler))
            continue
        (committed, _view, count), digest = max(
            (rank, digest) for digest, rank in candidates.items()
        )
        entry = Entry(sequence, target_view, digest, entries[(sequence, digest)].request)
        if committed or (promote_at is not None and count >= promote_at):
            commits.append(entry)
        else:
            prepares.append(entry)
    return checkpoint, commits, prepares


class ViewChangeManager:
    """One replica's view-change state machine and the request timer that starts it."""

    def __init__(self, replica: Any) -> None:
        self.replica = replica
        # (target_view, mode id) -> sender -> view-change message
        self._store: Dict[Tuple[int, int], Dict[str, Any]] = {}
        self._new_views_sent: set = set()
        self.active_target: Optional[int] = None
        self.pending_mode: Optional[int] = None
        self.view_changes_completed = 0
        self._request_timer = replica.create_timer(self._on_request_timeout, "request-timeout")
        self._new_view_timer = replica.create_timer(self._on_new_view_timeout, "new-view-timeout")

    # -- the request timer ------------------------------------------------------------

    def start_request_timer(self) -> None:
        """Arm the suspicion timer unless it is already running."""
        if not self._request_timer.active:
            self._request_timer.start(self.replica.config.request_timeout)

    def update_request_timer(self) -> None:
        """After a commit: re-arm the timer while a proposal is pending, else stop it."""
        if self.replica.slots.has_pending_proposal():
            self._request_timer.restart(self.replica.config.request_timeout)
        else:
            self._request_timer.stop()

    def _on_request_timeout(self) -> None:
        replica = self.replica
        if replica.crashed or replica.in_view_change:
            return
        replica.evidence.record(
            EvidenceKind.TIMEOUT, suspect=replica.current_primary(), detail=f"view={replica.view}"
        )
        self.start()

    # -- suspecting the primary ----------------------------------------------------------

    def start(self, new_mode: Optional[int] = None, target_view: Optional[int] = None) -> None:
        """Suspect the current primary and move toward a new view (under ``new_mode``)."""
        replica = self.replica
        if target_view is None:
            target_view = replica.view + 1
            if self.active_target is not None:
                target_view = max(target_view, self.active_target)
        if new_mode is not None:
            self.pending_mode = new_mode
        mode = self.pending_mode or _mode_of(replica)

        if self.active_target == target_view and replica.in_view_change:
            return
        self.active_target = target_view
        replica.in_view_change = True
        self._request_timer.stop()
        replica.leave_view()

        view_change = replica.view_change_message(target_view, mode, collector=False)
        self._store.setdefault((target_view, mode), {})[replica.node_id] = view_change
        replica.multicast(replica.other_replicas(), view_change)
        # A new view has twice the request timeout to be installed.
        self._new_view_timer.start(2 * replica.config.request_timeout)
        self._maybe_build_new_view(target_view, mode)

    def _on_new_view_timeout(self) -> None:
        """The collector of the target view never produced a new view; escalate."""
        if not self.replica.in_view_change or self.active_target is None:
            return
        self.start(target_view=self.active_target + 1)

    def on_view_change(self, src: str, message: Any) -> None:
        replica = self.replica
        if message.new_view <= replica.view:
            return
        if not replica.verify_message(src, message):
            return
        if message.replica_id != src:
            return  # a vote counts for its channel sender only
        mode = _mode_of(message)
        votes = self._store.setdefault((message.new_view, mode), {})
        votes[src] = message
        # Join rule: enough distinct replicas already moving to a higher view
        # is proof that a view change is under way.
        if not replica.in_view_change or (self.active_target or 0) < message.new_view:
            if len(votes) >= replica.join_threshold():
                self.start(
                    new_mode=mode if mode != _mode_of(replica) else None,
                    target_view=message.new_view,
                )
        self._maybe_build_new_view(message.new_view, mode)

    # -- the collector ----------------------------------------------------------------------

    def _maybe_build_new_view(self, target_view: int, mode: int) -> None:
        replica = self.replica
        if replica.node_id != replica.view_collector(target_view, mode):
            return
        key = (target_view, mode)
        if key in self._new_views_sent or target_view <= replica.view:
            return
        received = dict(self._store.get(key, {}))
        # The collector contributes its own knowledge even if its own timer
        # never expired.
        own = replica.node_id
        if own not in received:
            received[own] = replica.view_change_message(target_view, mode, collector=True)
        voters = replica.view_change_voters(mode)
        votes = [vote for sender, vote in received.items() if sender == own or sender in voters]
        if len(votes) < replica.view_change_quorum(mode):
            return
        new_view = replica.new_view_message(target_view, mode, votes)
        self._new_views_sent.add(key)
        replica.multicast(replica.other_replicas(), new_view)
        self.install(replica.node_id, new_view)

    # -- installing the new view ----------------------------------------------------------

    def on_new_view(self, src: str, message: Any) -> None:
        replica = self.replica
        if message.new_view <= replica.view:
            return
        if src != replica.view_collector(message.new_view, _mode_of(message)):
            return
        if not replica.verify_message(src, message):
            return
        self.install(src, message)

    def install(self, src: str, message: Any) -> None:
        """Enter the view ``message`` installs, then let the protocol re-propose."""
        replica = self.replica
        previous_view, replica.view = replica.view, message.new_view
        replica.install_roles()
        replica.in_view_change = False
        self.pending_mode = None
        self.active_target = None
        # Votes and sent-markers for views at or below this one can never
        # produce a new view again (both handlers refuse them).
        self._store = {key: votes for key, votes in self._store.items() if key[0] > replica.view}
        self._new_views_sent = {key for key in self._new_views_sent if key[0] > replica.view}
        self._new_view_timer.stop()
        self._request_timer.stop()
        self.view_changes_completed += 1
        replica.catch_up_to_view(src, message.checkpoint_sequence)
        replica.enter_view(src, message, previous_view)
        _log.info(
            "%s installed view %d (%s)", replica.node_id, replica.view, replica.protocol_label
        )
