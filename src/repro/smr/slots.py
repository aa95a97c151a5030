"""Per-sequence-number bookkeeping shared by the consensus protocols.

Each protocol orders client requests into numbered *slots*.  A slot collects
the request itself, the ordering message from the primary, and the votes
received in each phase (accept/prepare/commit/inform, depending on the
protocol and mode).  The protocols differ only in which phases exist and how
many matching votes they need -- the bookkeeping is identical, so it lives
here in the substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.smr.messages import Request, requests_of


@dataclass
class Slot:
    """State of one sequence number on one replica.

    ``request`` holds the slot's whole payload: a bare client request or a
    :class:`~repro.smr.messages.Batch` — agreement never looks inside it.
    """

    sequence: int
    view: int = 0
    digest: Optional[str] = None
    request: Optional[Request] = None
    ordering_message: Optional[Any] = None
    # phase -> voter -> the digest it voted for (None: any digest).
    votes: Dict[str, Dict[str, Optional[str]]] = field(default_factory=dict)
    committed: bool = False
    executed: bool = False

    @property
    def request_count(self) -> int:
        """Client requests carried by this slot (0 while the payload is unknown)."""
        if self.request is None:
            return 0
        return len(requests_of(self.request))

    def record_vote(self, phase: str, sender: str, digest: Optional[str] = None) -> int:
        """Record one vote for ``phase`` from ``sender``.

        Votes are keyed by sender so duplicates never inflate the count; a
        vote is the digest voted for.  If ``digest`` is given, only votes
        matching the slot's digest (once known) are counted; mismatching
        votes are still stored, so a later digest change recounts them.

        Returns:
            The number of votes now recorded for ``phase`` that match the
            slot digest (or all votes when the slot digest is unknown).
        """
        phase_votes = self.votes.setdefault(phase, {})
        phase_votes[sender] = digest
        return self.vote_count(phase)

    def vote_count(self, phase: str) -> int:
        """Number of distinct voters for ``phase`` whose digest matches the slot."""
        phase_votes = self.votes.get(phase)
        if not phase_votes:
            return 0
        slot_digest = self.digest
        if slot_digest is None:
            return len(phase_votes)
        # Plain loop, not a genexpr: this runs on every vote received and
        # the per-element generator frame shows up in profiles.
        count = 0
        for vote_digest in phase_votes.values():
            if vote_digest is None or vote_digest == slot_digest:
                count += 1
        return count

    def voters(self, phase: str) -> List[str]:
        """Distinct voter ids whose digest matches the slot digest."""
        phase_votes = self.votes.get(phase, {})
        if self.digest is None:
            return sorted(phase_votes)
        return sorted(
            sender
            for sender, vote_digest in phase_votes.items()
            if vote_digest is None or vote_digest == self.digest
        )

    def has_vote_from(self, phase: str, sender: str) -> bool:
        return sender in self.votes.get(phase, {})


class SlotLog:
    """All slots known to a replica, with watermark-based garbage collection."""

    def __init__(self) -> None:
        self._slots: Dict[int, Slot] = {}
        self._low_watermark = 0
        # The live slots that hold an ordered-but-uncommitted proposal, kept
        # by :meth:`track` and :meth:`collect_below`.
        self._pending: Set[int] = set()

    @property
    def low_watermark(self) -> int:
        """Sequence numbers at or below this are garbage collected."""
        return self._low_watermark

    def slot(self, sequence: int) -> Slot:
        """Return (creating if needed) the slot for ``sequence``."""
        if sequence <= self._low_watermark:
            # Stale slot: return a throwaway so callers need no special case.
            return Slot(sequence=sequence)
        existing = self._slots.get(sequence)
        if existing is None:
            existing = Slot(sequence=sequence)
            self._slots[sequence] = existing
        return existing

    def existing_slot(self, sequence: int) -> Optional[Slot]:
        return self._slots.get(sequence)

    def __contains__(self, sequence: int) -> bool:
        return sequence in self._slots

    def __len__(self) -> int:
        return len(self._slots)

    @property
    def sequences(self) -> List[int]:
        return sorted(self._slots)

    def slots_above(self, sequence: int) -> List[Slot]:
        """All live slots with sequence strictly greater than ``sequence``."""
        return [self._slots[seq] for seq in sorted(self._slots) if seq > sequence]

    def uncommitted_slots(self) -> List[Slot]:
        return [self._slots[seq] for seq in sorted(self._slots) if not self._slots[seq].committed]

    def track(self, slot: Slot) -> None:
        """Note whether live ``slot`` now holds an ordered-but-uncommitted proposal
        (a payload and an ordering message); called after either, or the
        commit flag, changed."""
        sequence = slot.sequence
        if self._slots.get(sequence) is not slot:
            return
        if not slot.committed and slot.request is not None and slot.ordering_message is not None:
            self._pending.add(sequence)
        else:
            self._pending.discard(sequence)

    def has_pending_proposal(self) -> bool:
        """Whether any slot holds an ordered-but-uncommitted proposal.

        The request-timer update asks this on every commit, so the answer is
        kept as slots change instead of walking the log.
        """
        return bool(self._pending)

    def highest_sequence(self) -> int:
        return max(self._slots) if self._slots else self._low_watermark

    def collect_below(self, watermark: int) -> int:
        """Garbage collect slots at or below ``watermark``.

        Returns the number of slots discarded.  Called when a checkpoint
        becomes stable (Section 5.1, "State Transfer").
        """
        if watermark <= self._low_watermark:
            return 0
        stale = [seq for seq in self._slots if seq <= watermark]
        for seq in stale:
            del self._slots[seq]
        self._pending.difference_update(stale)
        self._low_watermark = watermark
        return len(stale)
