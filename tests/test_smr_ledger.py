"""Dedicated tests for commit ledgers and cross-replica safety comparison."""

import pytest

from repro.smr.ledger import (
    CommitLedger,
    LedgerEntry,
    assert_ledgers_consistent,
    find_safety_violations,
)


def _entry(sequence, digest, view=0, client="c0", timestamp=None):
    return LedgerEntry(
        sequence=sequence,
        digest=digest,
        view=view,
        client_id=client,
        timestamp=timestamp if timestamp is not None else sequence,
    )


class TestCommitLedger:
    def test_record_and_lookup(self):
        ledger = CommitLedger("r0")
        ledger.record(_entry(1, "aaaa"))
        ledger.record(_entry(3, "cccc"))
        assert ledger.digest_at(1) == "aaaa"
        assert ledger.digest_at(2) is None
        assert ledger.entry_at(3).digest == "cccc"
        assert ledger.committed_sequences == [1, 3]
        assert ledger.highest_committed == 3
        assert len(ledger) == 2
        assert 1 in ledger and 2 not in ledger

    def test_empty_ledger_properties(self):
        ledger = CommitLedger("r0")
        assert ledger.committed_sequences == []
        assert ledger.highest_committed == 0
        assert len(ledger) == 0

    def test_rerecording_the_same_digest_is_a_noop(self):
        ledger = CommitLedger("r0")
        ledger.record(_entry(1, "aaaa"))
        ledger.record(_entry(1, "aaaa", view=2))  # e.g. a re-proposal recommit
        assert len(ledger) == 1
        assert ledger.entry_at(1).view == 0  # first record wins

    def test_local_divergence_is_rejected_immediately(self):
        # A single correct replica committing one slot twice with different
        # digests is a local safety violation, caught at record time.
        ledger = CommitLedger("r0")
        ledger.record(_entry(4, "aaaa"))
        with pytest.raises(ValueError, match="committed twice"):
            ledger.record(_entry(4, "bbbb"))

    def test_entries_since_scans_incrementally(self):
        ledger = CommitLedger("r0")
        for sequence in (1, 2, 3):
            ledger.record(_entry(sequence, f"d{sequence}"))
        first_pass = ledger.entries_since(0)
        assert [entry.sequence for entry in first_pass] == [1, 2, 3]
        offset = len(ledger)
        ledger.record(_entry(4, "d4"))
        second_pass = ledger.entries_since(offset)
        assert [entry.sequence for entry in second_pass] == [4]
        assert ledger.entries_since(len(ledger)) == []
        assert ledger.entries_since(10) == []
        # Out-of-order commits (a state transfer or a gap filled late) stay
        # in commit order, and a re-record with the same digest adds nothing.
        offset = len(ledger)
        for sequence in (7, 5, 6):
            ledger.record(_entry(sequence, f"d{sequence}"))
        ledger.record(_entry(5, "d5", view=3))
        assert [entry.sequence for entry in ledger.entries_since(offset)] == [7, 5, 6]
        assert [entry.sequence for entry in ledger.entries_since(0)] == [1, 2, 3, 4, 7, 5, 6]
        assert ledger.entries_since(offset + 1)[0].view == 0
        assert len(ledger) == 7 and ledger.entries_since(len(ledger)) == []


class TestFindSafetyViolations:
    def test_agreeing_prefixes_produce_no_violations(self):
        first, second = CommitLedger("r0"), CommitLedger("r1")
        for sequence in range(1, 6):
            first.record(_entry(sequence, f"d{sequence}"))
        for sequence in range(1, 4):  # a shorter prefix is fine
            second.record(_entry(sequence, f"d{sequence}"))
        assert find_safety_violations([first, second]) == []
        assert_ledgers_consistent([first, second])

    def test_disjoint_sequences_cannot_conflict(self):
        first, second = CommitLedger("r0"), CommitLedger("r1")
        first.record(_entry(1, "aaaa"))
        second.record(_entry(2, "bbbb"))
        assert find_safety_violations([first, second]) == []

    def test_conflicting_commit_is_reported_per_pair(self):
        first, second, third = CommitLedger("r0"), CommitLedger("r1"), CommitLedger("r2")
        first.record(_entry(7, "aaaa"))
        second.record(_entry(7, "bbbb"))
        third.record(_entry(7, "aaaa"))
        violations = find_safety_violations([first, second, third])
        # r0-vs-r1 and r1-vs-r2 conflict; r0-vs-r2 agree.
        assert len(violations) == 2
        assert {(v[1], v[3]) for v in violations} == {("r0", "r1"), ("r1", "r2")}
        sequence, _, digest_a, _, digest_b = violations[0]
        assert sequence == 7 and {digest_a, digest_b} == {"aaaa", "bbbb"}

    def test_assert_ledgers_consistent_raises_with_details(self):
        first, second = CommitLedger("r0"), CommitLedger("r1")
        first.record(_entry(2, "aaaa1234"))
        second.record(_entry(2, "bbbb5678"))
        with pytest.raises(AssertionError, match="sequence 2"):
            assert_ledgers_consistent([first, second])

    def test_single_or_empty_ledger_sets_are_trivially_safe(self):
        ledger = CommitLedger("r0")
        ledger.record(_entry(1, "aaaa"))
        assert find_safety_violations([ledger]) == []
        assert find_safety_violations([]) == []

    def test_divergence_after_an_agreeing_prefix_is_localized(self):
        # The prefix-agreement edge: two replicas agree on 1..3, diverge at
        # 4, and one of them keeps committing afterwards.  Only slot 4 is a
        # violation — agreement is per-sequence, not whole-log.
        first, second = CommitLedger("r0"), CommitLedger("r1")
        for sequence in (1, 2, 3):
            first.record(_entry(sequence, f"d{sequence}"))
            second.record(_entry(sequence, f"d{sequence}"))
        first.record(_entry(4, "fork-a"))
        second.record(_entry(4, "fork-b"))
        first.record(_entry(5, "d5"))
        violations = find_safety_violations([first, second])
        assert [v[0] for v in violations] == [4]
