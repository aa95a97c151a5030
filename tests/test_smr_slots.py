"""Unit tests for slot bookkeeping (votes, digest matching, watermarks, pending proposals)."""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.cluster import build_seemore
from repro.core import Mode
from repro.smr.messages import NewView
from repro.smr.replica import noop_request, request_digest
from repro.smr.slots import Slot, SlotLog
from repro.wire.codec import Entry


class TestSlot:
    def test_votes_are_per_sender(self):
        slot = Slot(sequence=1, digest="d")
        assert slot.record_vote("accept", "r0", "d") == 1
        assert slot.record_vote("accept", "r0", "d") == 1  # duplicate sender
        assert slot.record_vote("accept", "r1", "d") == 2

    def test_mismatching_digest_not_counted(self):
        slot = Slot(sequence=1, digest="d")
        slot.record_vote("accept", "r0", "d")
        slot.record_vote("accept", "r1", "other")
        assert slot.vote_count("accept") == 1
        assert slot.voters("accept") == ["r0"]

    def test_votes_without_digest_count_for_any_slot_digest(self):
        slot = Slot(sequence=1, digest="d")
        slot.record_vote("accept", "r0", None)
        assert slot.vote_count("accept") == 1

    def test_votes_banked_before_digest_known(self):
        slot = Slot(sequence=1)
        slot.record_vote("accept", "r0", "d")
        slot.record_vote("accept", "r1", "e")
        assert slot.vote_count("accept") == 2  # unknown digest: count everything
        slot.digest = "d"
        assert slot.vote_count("accept") == 1  # now filtered

    def test_has_vote_from(self):
        slot = Slot(sequence=1)
        slot.record_vote("commit", "r0", None)
        assert slot.has_vote_from("commit", "r0")
        assert not slot.has_vote_from("commit", "r1")
        assert not slot.has_vote_from("accept", "r0")


class TestSlotLog:
    def test_slot_created_on_demand(self):
        log = SlotLog()
        slot = log.slot(5)
        assert slot.sequence == 5
        assert 5 in log
        assert len(log) == 1

    def test_existing_slot_returns_none_when_absent(self):
        log = SlotLog()
        assert log.existing_slot(3) is None

    def test_slots_above_and_uncommitted(self):
        log = SlotLog()
        for sequence in (1, 2, 3):
            log.slot(sequence)
        log.slot(2).committed = True
        assert [slot.sequence for slot in log.slots_above(1)] == [2, 3]
        assert [slot.sequence for slot in log.uncommitted_slots()] == [1, 3]

    def test_collect_below_discards_and_sets_watermark(self):
        log = SlotLog()
        for sequence in range(1, 11):
            log.slot(sequence)
        discarded = log.collect_below(5)
        assert discarded == 5
        assert log.low_watermark == 5
        assert log.sequences == [6, 7, 8, 9, 10]

    def test_collect_below_is_monotonic(self):
        log = SlotLog()
        log.slot(10)
        log.collect_below(8)
        assert log.collect_below(4) == 0
        assert log.low_watermark == 8

    def test_slot_below_watermark_is_throwaway(self):
        log = SlotLog()
        log.slot(10)
        log.collect_below(10)
        stale = log.slot(3)
        stale.digest = "x"
        assert log.existing_slot(3) is None

    def test_highest_sequence(self):
        log = SlotLog()
        assert log.highest_sequence() == 0
        log.slot(7)
        log.slot(3)
        assert log.highest_sequence() == 7


def walked_pending(log):
    """The walk ``has_pending_proposal`` replaced: any live ordered-but-uncommitted slot."""
    return any(
        not slot.committed and slot.request is not None and slot.ordering_message is not None
        for slot in log._slots.values()
    )


SEQUENCES = st.integers(min_value=1, max_value=12)
VARIANTS = st.integers(min_value=0, max_value=1)


class PendingProposals(RuleBasedStateMachine):
    """A Lion backup's slot log under fills, force-fills, commits, collection and
    view entry, driven through the replica's own entry points: after every step
    the kept answer is the walk's."""

    @initialize()
    def build_replica(self):
        deployment = build_seemore(mode=Mode.LION, num_clients=1)
        config = deployment.group().config
        self.replica = deployment.replicas[config.private_replicas[1]]

    @staticmethod
    def payload(sequence, variant):
        request = noop_request(100 * sequence + variant)
        return request_digest(request), request

    @rule(sequence=SEQUENCES, variant=VARIANTS, ordered=st.booleans(), force=st.booleans())
    def fill(self, sequence, variant, ordered, force):
        digest, request = self.payload(sequence, variant)
        ordering = ("ordering", sequence, variant) if ordered else None
        self.replica.fill_slot(sequence, digest, request, ordering, force=force)

    @rule(sequence=SEQUENCES)
    def commit(self, sequence):
        slot = self.replica.slots.existing_slot(sequence)
        if slot is not None and slot.request is not None:
            self.replica.finalize(slot, send_reply=False)

    @rule(watermark=SEQUENCES)
    def collect(self, watermark):
        self.replica.slots.collect_below(watermark)

    @rule(
        commits=st.lists(st.tuples(SEQUENCES, VARIANTS), max_size=3),
        prepares=st.lists(st.tuples(SEQUENCES, VARIANTS), max_size=3),
    )
    def enter_view(self, commits, prepares):
        replica = self.replica
        ledger = replica.ledger

        def entries(picked):
            # One entry per sequence, as reconcile gives; and a sequence commits
            # with one digest only (a second one is a safety violation).
            return [
                Entry(sequence, replica.view + 1, *self.payload(sequence, variant))
                for sequence, variant in dict(picked).items()
                if ledger.digest_at(sequence) in (None, self.payload(sequence, variant)[0])
            ]

        replica.view_changes.install(
            replica.node_id,
            NewView(
                new_view=replica.view + 1,
                mode=int(Mode.LION),
                replica_id=replica.node_id,
                checkpoint_sequence=0,
                prepares=entries(prepares),
                commits=entries(commits),
            ),
        )

    @invariant()
    def kept_answer_is_the_walks(self):
        slots = self.replica.slots
        assert slots.has_pending_proposal() == walked_pending(slots)


TestPendingProposals = PendingProposals.TestCase
TestPendingProposals.settings = settings(max_examples=60, stateful_step_count=30, deadline=None)
