"""Commit ledgers: the ground truth used to check safety.

Every replica appends an entry to its ledger when it commits a sequence
number.  Safety (the paper's property (1): all correct servers execute the
same requests in the same order) is asserted by comparing ledgers of
correct replicas: for every sequence number committed by two correct
replicas, the request digests must match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class LedgerEntry:
    """One committed slot on one replica."""

    sequence: int
    digest: str
    view: int
    client_id: str
    timestamp: int


class CommitLedger:
    """Append-only record of a replica's committed sequence numbers."""

    def __init__(self, replica_id: str) -> None:
        self.replica_id = replica_id
        self._entries: Dict[int, LedgerEntry] = {}
        self._in_commit_order: List[LedgerEntry] = []

    def record(self, entry: LedgerEntry) -> None:
        """Record a commit; re-recording the same digest is a no-op.

        Raises:
            ValueError: if the slot was already committed with a *different*
                digest -- that is a local safety violation and should never
                happen for a correct replica.
        """
        existing = self._entries.get(entry.sequence)
        if existing is not None:
            if existing.digest != entry.digest:
                raise ValueError(
                    f"replica {self.replica_id}: sequence {entry.sequence} committed twice "
                    f"with different digests ({existing.digest[:8]} vs {entry.digest[:8]})"
                )
            return
        self._entries[entry.sequence] = entry
        self._in_commit_order.append(entry)

    def digest_at(self, sequence: int) -> Optional[str]:
        entry = self._entries.get(sequence)
        return entry.digest if entry else None

    def entry_at(self, sequence: int) -> Optional[LedgerEntry]:
        return self._entries.get(sequence)

    def entries_since(self, offset: int) -> List[LedgerEntry]:
        """Entries recorded after the first ``offset``, in commit order.

        The ledger is append-only, so a caller can scan it incrementally by
        remembering ``len(ledger)`` between calls (continuous safety
        checkers do this to avoid re-comparing already-verified slots).
        """
        return self._in_commit_order[offset:]

    @property
    def committed_sequences(self) -> List[int]:
        return sorted(self._entries)

    @property
    def highest_committed(self) -> int:
        return max(self._entries) if self._entries else 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, sequence: int) -> bool:
        return sequence in self._entries


def find_safety_violations(ledgers: Iterable[CommitLedger]) -> List[Tuple[int, str, str, str, str]]:
    """Compare ledgers pairwise and return conflicting commits.

    Returns a list of ``(sequence, replica_a, digest_a, replica_b, digest_b)``
    tuples, one per conflicting pair.  An empty list means the execution was
    safe (with respect to the replicas provided -- callers must pass only
    *correct* replicas' ledgers, since Byzantine replicas may record
    anything).
    """
    violations: List[Tuple[int, str, str, str, str]] = []
    ledger_list = list(ledgers)
    for index, first in enumerate(ledger_list):
        for second in ledger_list[index + 1:]:
            shared = set(first.committed_sequences) & set(second.committed_sequences)
            for sequence in sorted(shared):
                digest_a = first.digest_at(sequence)
                digest_b = second.digest_at(sequence)
                if digest_a != digest_b:
                    violations.append(
                        (
                            sequence,
                            first.replica_id,
                            digest_a or "",
                            second.replica_id,
                            digest_b or "",
                        )
                    )
    return violations


def assert_ledgers_consistent(ledgers: Iterable[CommitLedger]) -> None:
    """Raise ``AssertionError`` when any two ledgers conflict."""
    violations = find_safety_violations(ledgers)
    if violations:
        sequence, replica_a, digest_a, replica_b, digest_b = violations[0]
        raise AssertionError(
            f"safety violation at sequence {sequence}: "
            f"{replica_a} committed {digest_a[:8]} but {replica_b} committed {digest_b[:8]} "
            f"({len(violations)} total conflicts)"
        )
