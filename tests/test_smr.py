"""Unit tests for state machines, the ordered executor, and commit ledgers."""

import copy
import pickle

import pytest

from repro.cluster import builder_for
from repro.crypto import digest
from repro.faults.crash import current_primary_id
from repro.smr import (
    CommitLedger,
    Counter,
    KeyValueStore,
    LedgerEntry,
    NullStateMachine,
    Operation,
    OrderedExecutor,
)
from repro.smr.executor import ExecutionResult
from repro.smr.ledger import assert_ledgers_consistent, find_safety_violations
from repro.smr.messages import Request
from repro.smr.state_machine import StateMachine


class TestOperations:
    def test_wire_size_includes_payload(self):
        small = Operation("noop")
        big = Operation("noop", payload="x" * 4096)
        assert big.wire_size() > small.wire_size() + 4000

    def test_to_wire_is_json_friendly(self):
        op = Operation("put", ("k", "v"), payload="xy")
        wire = op.to_wire()
        assert wire["kind"] == "put"
        assert wire["payload_len"] == 2


class TestOperationValue:
    """``Operation`` is a slotted value class that behaves as the frozen dataclass it replaced."""

    OP = Operation("put", ("k", 12, 2.5, None, (1, "a")), "xyz")

    def test_keyword_positional_and_default_construction_agree(self):
        assert Operation(kind="put", args=self.OP.args, payload="xyz") == self.OP
        assert Operation("put", self.OP.args, payload="xyz") == self.OP
        bare = Operation("noop")
        assert (bare.kind, bare.args, bare.payload) == ("noop", (), "")
        assert Operation(kind="noop") == bare == Operation("noop", (), "")

    def test_equal_values_are_equal_and_hash_alike(self):
        twin = Operation("put", ("k", 12, 2.5, None, (1, "a")), "xyz")
        assert twin is not self.OP
        assert twin == self.OP and not twin != self.OP
        assert hash(twin) == hash(self.OP)
        assert len({twin, self.OP}) == 1

    @pytest.mark.parametrize(
        "other",
        [
            Operation("get", ("k", 12, 2.5, None, (1, "a")), "xyz"),
            Operation("put", ("k", 12, 2.5, None, (1, "b")), "xyz"),
            Operation("put", ("k", 12, 2.5, None, (1, "a")), "xy"),
        ],
        ids=["kind", "args", "payload"],
    )
    def test_one_differing_field_makes_a_different_value(self, other):
        assert other != self.OP and not other == self.OP
        assert hash(other) != hash(self.OP)

    def test_other_types_never_compare_equal(self):
        assert self.OP != ("put", self.OP.args, "xyz")
        assert self.OP.__eq__(("put", self.OP.args, "xyz")) is NotImplemented

    def test_repr_is_the_dataclass_repr(self):
        assert repr(self.OP) == (
            "Operation(kind='put', args=('k', 12, 2.5, None, (1, 'a')), payload='xyz')"
        )
        assert repr(Operation("noop")) == "Operation(kind='noop', args=(), payload='')"
        quoted = Operation(kind="get", args=("k'\"",), payload="é")
        assert repr(quoted) == "Operation(kind='get', args=('k\\'\"',), payload='é')"

    def test_to_wire_and_wire_size_are_unchanged(self):
        assert self.OP.to_wire() == {
            "kind": "put",
            "args": ["k", 12, 2.5, None, (1, "a")],
            "payload_len": 3,
        }
        assert self.OP.wire_size() == 37
        assert Operation("noop").to_wire() == {"kind": "noop", "args": [], "payload_len": 0}
        assert Operation("noop").wire_size() == 16
        assert Operation("get", ("k'\"",), "é").wire_size() == 20

    def test_copies_and_pickles_are_equal_values(self):
        for clone in (
            copy.copy(self.OP),
            copy.deepcopy(self.OP),
            pickle.loads(pickle.dumps(self.OP)),
        ):
            assert type(clone) is Operation
            assert clone == self.OP and hash(clone) == hash(self.OP)
            assert repr(clone) == repr(self.OP)

    def test_it_is_slotted(self):
        assert Operation.__slots__ == ("kind", "args", "payload")
        assert not hasattr(self.OP, "__dict__")


class TestKeyValueStore:
    def setup_method(self):
        self.store = KeyValueStore()

    def test_put_and_get(self):
        self.store.apply(Operation("put", ("k", "v")))
        result = self.store.apply(Operation("get", ("k",)))
        assert result["value"] == "v"

    def test_get_missing_key(self):
        result = self.store.apply(Operation("get", ("missing",)))
        assert result["value"] is None

    def test_delete(self):
        self.store.apply(Operation("put", ("k", "v")))
        result = self.store.apply(Operation("delete", ("k",)))
        assert result["existed"] is True
        assert self.store.get("k") is None

    def test_delete_missing(self):
        result = self.store.apply(Operation("delete", ("nope",)))
        assert result["existed"] is False

    def test_scan_with_prefix(self):
        for key in ("user:1", "user:2", "order:1"):
            self.store.apply(Operation("put", (key, key)))
        result = self.store.apply(Operation("scan", ("user:",)))
        assert result["keys"] == ["user:1", "user:2"]

    def test_scan_without_prefix_returns_all(self):
        self.store.apply(Operation("put", ("a", 1)))
        self.store.apply(Operation("put", ("b", 2)))
        result = self.store.apply(Operation("scan"))
        assert result["keys"] == ["a", "b"]

    def test_unknown_operation_raises(self):
        with pytest.raises(ValueError):
            self.store.apply(Operation("frobnicate"))

    def test_snapshot_restore_roundtrip(self):
        self.store.apply(Operation("put", ("k", "v")))
        snapshot = self.store.snapshot()
        other = KeyValueStore()
        other.restore(snapshot)
        assert other.get("k") == "v"

    def test_len_counts_keys(self):
        self.store.apply(Operation("put", ("a", 1)))
        self.store.apply(Operation("put", ("b", 2)))
        assert len(self.store) == 2


class TestCounterAndNull:
    def test_counter_add_and_read(self):
        counter = Counter()
        counter.apply(Operation("add", (5,)))
        counter.apply(Operation("add", (3,)))
        assert counter.apply(Operation("read"))["value"] == 8

    def test_counter_snapshot_restore(self):
        counter = Counter()
        counter.apply(Operation("add", (7,)))
        other = Counter()
        other.restore(counter.snapshot())
        assert other.value == 7

    def test_counter_unknown_op(self):
        with pytest.raises(ValueError):
            Counter().apply(Operation("frobnicate"))

    def test_null_machine_echoes_payload_size(self):
        machine = NullStateMachine(reply_payload_size=16)
        result = machine.apply(Operation("noop"))
        assert len(result["payload"]) == 16

    def test_null_machine_counts_operations(self):
        machine = NullStateMachine()
        machine.apply(Operation("noop"))
        machine.apply(Operation("noop"))
        assert machine.operations_applied == 2


class TestOrderedExecutor:
    def setup_method(self):
        self.executor = OrderedExecutor(Counter())

    def test_in_order_execution(self):
        self.executor.commit(1, "c1", 1, Operation("add", (1,)))
        self.executor.commit(2, "c1", 2, Operation("add", (2,)))
        assert self.executor.state_machine.value == 3
        assert self.executor.last_executed == 2

    def test_gap_buffers_until_filled(self):
        self.executor.commit(2, "c1", 2, Operation("add", (2,)))
        assert self.executor.state_machine.value == 0
        executed = self.executor.commit(1, "c1", 1, Operation("add", (1,)))
        assert self.executor.state_machine.value == 3
        assert [e.sequence for e in executed] == [1, 2]

    def test_checkpoint_hook_fires_at_boundary_state(self):
        """The hook observes the state exactly at the boundary, even when one
        commit fills a gap and drains past the boundary in the same call."""
        observed = []
        self.executor.set_checkpoint_hook(
            2,
            lambda seq: observed.append(
                (seq, self.executor.next_sequence, self.executor.state_machine.value)
            ),
        )
        # Out-of-order arrival: 3 and 2 buffer, then 1 drains all three.
        self.executor.commit(3, "c1", 3, Operation("add", (30,)))
        self.executor.commit(2, "c1", 2, Operation("add", (20,)))
        self.executor.commit(1, "c1", 1, Operation("add", (10,)))
        # At the boundary (seq 2) the hook saw value 10+20, NOT the drain
        # frontier's 60 — matching what an in-order replica digests.
        assert observed == [(2, 3, 30)]

    def test_checkpoint_hook_matches_in_order_replica(self):
        def run(commit_order):
            snapshots = []
            executor = OrderedExecutor(Counter())
            executor.set_checkpoint_hook(
                2, lambda seq: snapshots.append((seq, executor.snapshot()["state"]))
            )
            for sequence in commit_order:
                executor.commit(sequence, "c1", sequence, Operation("add", (sequence,)))
            return snapshots

        assert run([1, 2, 3, 4]) == run([2, 4, 3, 1])

    def test_duplicate_commit_ignored(self):
        self.executor.commit(1, "c1", 1, Operation("add", (1,)))
        self.executor.commit(1, "c1", 1, Operation("add", (1,)))
        assert self.executor.state_machine.value == 1

    def test_duplicate_request_uses_reply_cache(self):
        self.executor.commit(1, "c1", 5, Operation("add", (1,)))
        # Same client timestamp committed again under a different sequence
        # (can happen across view changes); must not double-execute.
        self.executor.commit(2, "c1", 5, Operation("add", (1,)))
        assert self.executor.state_machine.value == 1
        assert 5 in self.executor.replies_to("c1")

    def test_cached_reply_returned(self):
        self.executor.commit(1, "c1", 5, Operation("add", (4,)))
        assert self.executor.replies_to("c1")[5]["value"] == 4
        assert 99 not in self.executor.replies_to("c1")
        assert self.executor.replies_to("c2") == {}

    def test_invalid_sequence_rejected(self):
        with pytest.raises(ValueError):
            self.executor.commit(0, "c1", 1, Operation("noop"))

    def test_commit_below_watermark_is_noop(self):
        self.executor.commit(1, "c1", 1, Operation("add", (1,)))
        executed = self.executor.commit(1, "c2", 9, Operation("add", (100,)))
        assert executed == []
        assert self.executor.state_machine.value == 1

    def test_snapshot_restore_jumps_forward(self):
        self.executor.commit(1, "c1", 1, Operation("add", (1,)))
        self.executor.commit(2, "c1", 2, Operation("add", (2,)))
        snapshot = self.executor.snapshot()

        lagging = OrderedExecutor(Counter())
        lagging.restore(snapshot)
        assert lagging.next_sequence == 3
        assert lagging.state_machine.value == 3

    def test_restore_never_moves_backwards(self):
        self.executor.commit(1, "c1", 1, Operation("add", (1,)))
        old_snapshot = {"next_sequence": 1, "state": 0, "replies": {}}
        self.executor.restore(old_snapshot)
        assert self.executor.next_sequence == 2
        assert self.executor.state_machine.value == 1

    def test_discard_below_drops_stale_pending(self):
        self.executor.commit(5, "c1", 5, Operation("add", (5,)))
        self.executor.discard_below(10)
        self.executor.restore({"next_sequence": 10, "state": 0, "replies": {}})
        self.executor.commit(10, "c1", 10, Operation("add", (10,)))
        assert self.executor.state_machine.value == 10

    def test_executed_history_grows_in_order(self):
        for seq in (3, 1, 2):
            self.executor.commit(seq, "c1", seq, Operation("add", (seq,)))
        assert [e.sequence for e in self.executor.executed] == [1, 2, 3]

    def test_executed_history_reads_like_a_list_of_executions(self):
        self.executor.commit_batch(1, [("c1", 1, Operation("add", (1,))),
                                       ("c2", 7, Operation("add", (2,)))])
        self.executor.commit(2, "c1", 2, Operation("add", (3,)))
        history = self.executor.executed
        expected = [
            ExecutionResult(1, "c1", 1, {"ok": True, "value": 1}),
            ExecutionResult(1, "c2", 7, {"ok": True, "value": 3}),
            ExecutionResult(2, "c1", 2, {"ok": True, "value": 6}),
        ]
        assert len(history) == 3
        assert list(history) == expected
        assert history[1:] == expected[1:]
        assert history[:-1] == expected[:2]
        assert history[5:] == []
        history.extend([ExecutionResult(3, "c3", 1, None)])
        assert history[3:] == [(3, "c3", 1, None)]


class NoneResults(StateMachine):
    """Every operation executes to ``None``."""

    def apply(self, operation):
        return None

    def snapshot(self):
        return 0

    def restore(self, snapshot):
        pass


class TestCachedNoneReply:
    """A request that executed to ``None`` has executed: a retransmission is
    answered from the reply table, not ordered again."""

    @pytest.mark.parametrize("protocol", ["seemore-lion", "seemore-peacock", "cft", "bft"])
    def test_a_retransmission_is_answered_and_proposes_no_slot(self, protocol):
        from repro.cluster import builder_for

        deployment = builder_for(protocol)(num_clients=1, seed=1)
        (client,) = deployment.clients
        primary = next(replica for replica in deployment.replicas.values() if replica.is_primary())
        primary.executor = OrderedExecutor(NoneResults())
        request = Request(operation=Operation("get", ("k",)), timestamp=1, client_id=client.node_id)
        request.sign(deployment.keystore.signer_for(client.node_id))
        primary.executor.commit(1, client.node_id, 1, request.operation)
        replies, next_sequence = primary.replies_sent, primary.next_sequence

        primary.handle_message(client.node_id, request)
        deployment.run(0.05)

        assert primary.replies_sent == replies + 1
        assert primary.next_sequence == next_sequence
        assert len(primary.slots) == 0


class TestCommitLedger:
    def test_record_and_lookup(self):
        ledger = CommitLedger("r0")
        entry = LedgerEntry(1, digest("op"), 0, "c1", 1)
        ledger.record(entry)
        assert ledger.digest_at(1) == digest("op")
        assert 1 in ledger
        assert ledger.highest_committed == 1

    def test_re_record_same_digest_ok(self):
        ledger = CommitLedger("r0")
        entry = LedgerEntry(1, digest("op"), 0, "c1", 1)
        ledger.record(entry)
        ledger.record(entry)
        assert len(ledger) == 1

    def test_conflicting_record_raises(self):
        ledger = CommitLedger("r0")
        ledger.record(LedgerEntry(1, digest("op-a"), 0, "c1", 1))
        with pytest.raises(ValueError):
            ledger.record(LedgerEntry(1, digest("op-b"), 0, "c1", 1))

    def test_find_safety_violations_none_when_consistent(self):
        ledgers = [CommitLedger(f"r{i}") for i in range(3)]
        for ledger in ledgers:
            ledger.record(LedgerEntry(1, digest("op"), 0, "c1", 1))
        assert find_safety_violations(ledgers) == []

    def test_find_safety_violations_detects_divergence(self):
        first, second = CommitLedger("r0"), CommitLedger("r1")
        first.record(LedgerEntry(1, digest("op-a"), 0, "c1", 1))
        second.record(LedgerEntry(1, digest("op-b"), 0, "c1", 1))
        violations = find_safety_violations([first, second])
        assert len(violations) == 1
        assert violations[0][0] == 1

    def test_assert_ledgers_consistent_raises_on_conflict(self):
        first, second = CommitLedger("r0"), CommitLedger("r1")
        first.record(LedgerEntry(1, digest("op-a"), 0, "c1", 1))
        second.record(LedgerEntry(1, digest("op-b"), 0, "c1", 1))
        with pytest.raises(AssertionError):
            assert_ledgers_consistent([first, second])

    def test_disjoint_ledgers_are_consistent(self):
        first, second = CommitLedger("r0"), CommitLedger("r1")
        first.record(LedgerEntry(1, digest("op-a"), 0, "c1", 1))
        second.record(LedgerEntry(2, digest("op-b"), 0, "c1", 2))
        assert_ledgers_consistent([first, second])

    def test_empty_ledger_properties(self):
        ledger = CommitLedger("r0")
        assert ledger.highest_committed == 0
        assert ledger.committed_sequences == []
        assert ledger.entry_at(1) is None


@pytest.mark.parametrize(
    "protocol", ["seemore-lion", "seemore-dog", "seemore-peacock", "cft", "bft", "s-upright"]
)
def test_a_backup_forwards_only_a_request_whose_client_signature_verifies(protocol):
    """The one request intake checks the client's signature before a backup
    forwards, so a forged request costs the primary nothing."""
    deployment = builder_for(protocol)()
    primary = current_primary_id(deployment.group())
    backup = next(
        replica for replica_id, replica in deployment.replicas.items() if replica_id != primary
    )
    sent = []
    backup.send = lambda dst, message: sent.append((dst, message))
    client = deployment.clients[0].node_id

    def request(timestamp, signer):
        operation = Operation("put", ("k", timestamp))
        unsigned = Request(operation=operation, timestamp=timestamp, client_id=client)
        return unsigned.sign(deployment.keystore.signer_for(signer))

    backup.handle_message(client, request(1, signer=backup.node_id))
    assert sent == []
    genuine = request(2, signer=client)
    backup.handle_message(client, genuine)
    assert sent == [(primary, genuine)]
