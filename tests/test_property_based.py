"""Property-based tests (hypothesis) on core data structures and invariants."""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.crypto import KeyStore, digest
from repro.planner import (
    hybrid_network_size,
    hybrid_quorum_size,
    plan_with_explicit_failures,
    plan_with_failure_ratio,
)
from repro.planner.sizing import InfeasiblePlanError
from repro.sim import Simulator
from repro.smr import Counter, Operation, OrderedExecutor
from repro.smr.replica import noop_request, request_digest
from repro.smr.slots import SlotLog
from repro.smr.view_change import reconcile
from repro.wire.codec import Entry


class TestQuorumIntersectionProperties:
    @given(malicious=st.integers(0, 20), crash=st.integers(0, 20))
    def test_hybrid_quorums_intersect_in_a_correct_node(self, malicious, crash):
        """Any two quorums of size 2m+c+1 out of 3m+2c+1 share > m nodes.

        This is the core safety argument of Section 3.2: the intersection of
        any two quorums contains at least m+1 nodes, hence at least one
        non-faulty node.
        """
        network = hybrid_network_size(malicious, crash)
        quorum = hybrid_quorum_size(malicious, crash)
        intersection = 2 * quorum - network
        assert intersection >= malicious + 1

    @given(malicious=st.integers(0, 20), crash=st.integers(0, 20))
    def test_network_leaves_a_live_quorum_despite_faults(self, malicious, crash):
        """Even with every faulty node silent, a full quorum of correct nodes remains."""
        network = hybrid_network_size(malicious, crash)
        quorum = hybrid_quorum_size(malicious, crash)
        assert network - (malicious + crash) >= quorum


class TestPlannerProperties:
    @given(
        crash=st.integers(1, 6),
        alpha=st.floats(0.01, 0.32),
    )
    def test_ratio_plan_always_satisfies_network_constraint(self, crash, alpha):
        private = crash + 1  # the beneficial regime requires c < S < 2c+1
        if private >= 2 * crash + 1:
            return
        try:
            plan = plan_with_failure_ratio(private, crash, alpha)
        except InfeasiblePlanError:
            return
        worst_case_malicious = int(alpha * plan.public_nodes)
        assert plan.network_size >= 3 * worst_case_malicious + 2 * crash + 1

    @given(
        private=st.integers(0, 10),
        crash=st.integers(0, 5),
        public_malicious=st.integers(0, 5),
        public_crash=st.integers(0, 5),
    )
    def test_explicit_plan_is_exact_or_zero(self, private, crash, public_malicious, public_crash):
        plan = plan_with_explicit_failures(private, crash, public_malicious, public_crash)
        required = 3 * public_malicious + 2 * public_crash + 2 * crash + 1
        assert plan.network_size >= required or plan.public_nodes == 0


class TestExecutorProperties:
    @given(st.permutations(list(range(1, 12))))
    @settings(max_examples=50)
    def test_out_of_order_commits_execute_in_order(self, order):
        """Whatever order commits arrive in, execution is in sequence order."""
        executor = OrderedExecutor(Counter())
        for sequence in order:
            executor.commit(sequence, "client", sequence, Operation("add", (sequence,)))
        executed = [execution.sequence for execution in executor.executed]
        assert executed == sorted(executed)
        assert executor.last_executed == 11
        assert executor.state_machine.value == sum(range(1, 12))

    @given(
        st.lists(
            st.tuples(st.integers(1, 8), st.integers(1, 5)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=50)
    def test_duplicate_client_requests_execute_once(self, submissions):
        """The same (client, timestamp) never mutates state twice."""
        executor = OrderedExecutor(Counter())
        sequence = 0
        seen = set()
        for client_index, timestamp in submissions:
            sequence += 1
            executor.commit(sequence, f"client-{client_index}", timestamp, Operation("add", (1,)))
            seen.add((f"client-{client_index}", timestamp))
        assert executor.state_machine.value == len(seen)


class TestDigestProperties:
    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(st.integers(), st.text(max_size=16), st.booleans()),
            max_size=8,
        )
    )
    def test_digest_is_deterministic_and_order_insensitive(self, payload):
        reordered = dict(reversed(list(payload.items())))
        assert digest(payload) == digest(reordered)

    @given(st.text(max_size=64), st.text(max_size=64))
    def test_different_strings_rarely_collide(self, first, second):
        if first != second:
            assert digest(first) != digest(second)

    @given(st.binary(max_size=256))
    def test_signature_never_verifies_with_wrong_message(self, tampered):
        keystore = KeyStore()
        keystore.register("node")
        signer = keystore.signer_for("node")
        verifier = keystore.verifier()
        signature = signer.sign("the-real-message")
        if tampered != b"the-real-message":
            assert not verifier.verify(tampered, signature)


class TestDigestCacheProperties:
    """``digest_of`` with caching must equal the uncached canonical digest."""

    @given(
        kind=st.sampled_from(["put", "get", "noop", "scan"]),
        args=st.lists(st.text(max_size=12), max_size=4),
        payload=st.text(max_size=32),
        timestamp=st.integers(min_value=1, max_value=10**9),
        client=st.from_regex(r"client-[0-9]{1,4}", fullmatch=True),
    )
    def test_request_digest_cache_matches_cold_recompute(
        self, kind, args, payload, timestamp, client
    ):
        from repro.crypto.digest import digest_bytes, digest_of
        from repro.smr.messages import Request

        request = Request(
            operation=Operation(kind=kind, args=tuple(args), payload=payload),
            timestamp=timestamp,
            client_id=client,
        )
        warm = digest_of(request)
        assert warm == digest_of(request)  # cache hit
        assert warm == digest_bytes(request.signing_bytes())  # cold canonical form
        # An identical, freshly built message (cold cache) agrees.
        twin = Request(
            operation=Operation(kind=kind, args=tuple(args), payload=payload),
            timestamp=timestamp,
            client_id=client,
        )
        assert digest_of(twin) == warm

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
    )
    def test_batch_digest_cache_matches_cold_recompute(self, sizes):
        from repro.crypto.digest import digest_bytes, digest_of
        from repro.smr.messages import Batch, Request

        def build():
            return Batch(
                requests=[
                    Request(
                        operation=Operation("put", ("k", "v" * size)),
                        timestamp=index + 1,
                        client_id="client-0",
                    )
                    for index, size in enumerate(sizes)
                ]
            )

        warm_batch = build()
        warm = digest_of(warm_batch)
        assert warm == digest_bytes(warm_batch.signing_bytes())
        assert digest_of(build()) == warm  # cold twin agrees

    @given(
        entries=st.dictionaries(
            st.sampled_from(["checkpoint_digest", "x", "y", "z"]),
            st.integers(),
            max_size=4,
        )
    )
    def test_plain_value_digests_are_key_order_insensitive(self, entries):
        """Plain dicts (no wire frame) canonicalize order-free.

        This pins the dict-key-order guarantee of the JSON path that
        ``digest`` / ``digest_of`` keep for values that are not messages
        (execution results, state digests).
        """
        from repro.crypto.digest import digest_of

        forward = dict(entries)
        backward = dict(reversed(list(entries.items())))
        assert digest_of(forward) == digest_of(backward) == digest(entries)


class TestWireCacheInvalidationProperties:
    """PR 3's invalidation contract, extended to the binary codec era: a
    message now freezes *two* derived caches — the content digest and the
    binary wire slice — and any content-field mutation (or copy) must drop
    both together, or a tampered message could keep digesting (or
    re-encoding) as its pre-mutation self."""

    @given(
        timestamp=st.integers(min_value=1, max_value=10**9),
        new_timestamp=st.integers(min_value=1, max_value=10**9),
        client=st.from_regex(r"client-[0-9]{1,3}", fullmatch=True),
    )
    def test_mutation_after_encoding_drops_digest_and_wire_slice(
        self, timestamp, new_timestamp, client
    ):
        from repro.crypto.digest import DIGEST_CACHE_ATTR, digest_of
        from repro.smr.messages import Request

        request = Request(
            operation=Operation("put", ("k", "v")), timestamp=timestamp, client_id=client
        )
        frame = request.wire_slice()  # freeze both caches
        digest_before = digest_of(request)
        assert DIGEST_CACHE_ATTR in request.__dict__
        assert "_wire_slice" in request.__dict__

        request.timestamp = new_timestamp
        assert DIGEST_CACHE_ATTR not in request.__dict__
        assert "_wire_slice" not in request.__dict__
        if new_timestamp != timestamp:
            assert request.wire_slice() != frame
            assert digest_of(request) != digest_before
        else:
            assert request.wire_slice() == frame
            assert digest_of(request) == digest_before

    @given(
        field=st.sampled_from(["view", "sequence", "digest", "mode", "replica_id"]),
        value=st.integers(min_value=0, max_value=10**6),
    )
    def test_every_vote_content_field_invalidates_both_caches(self, field, value):
        from repro.core.messages import Commit
        from repro.crypto.digest import DIGEST_CACHE_ATTR

        commit = Commit(view=0, sequence=1, digest="d" * 64, replica_id="r0", mode=0)
        commit.wire_slice()
        setattr(commit, field, str(value) if field in ("digest", "replica_id") else value)
        assert DIGEST_CACHE_ATTR not in commit.__dict__
        assert "_wire_slice" not in commit.__dict__

    @given(timestamp=st.integers(min_value=1, max_value=10**9))
    def test_copy_drops_both_caches_but_signature_assignment_does_not(self, timestamp):
        import copy

        from repro.crypto import KeyStore
        from repro.crypto.digest import DIGEST_CACHE_ATTR
        from repro.smr.messages import Request

        keystore = KeyStore()
        keystore.register("client")
        request = Request(
            operation=Operation("noop"), timestamp=timestamp, client_id="client"
        )
        request.sign(keystore.signer_for("client"))
        assert DIGEST_CACHE_ATTR in request.__dict__  # sign froze the digest
        request.wire_slice()

        # ``signature`` rides beside the signed frame: assigning it must
        # NOT drop the caches (sign() itself assigns it post-digest)...
        request.signature = request.signature
        assert DIGEST_CACHE_ATTR in request.__dict__
        assert "_wire_slice" in request.__dict__

        # ...but a copy (the first step of every byzantine twist) starts
        # with every derived cache cold.
        twin = copy.copy(request)
        assert DIGEST_CACHE_ATTR not in twin.__dict__
        assert "_wire_slice" not in twin.__dict__
        assert "_wire_size" not in twin.__dict__

    @given(payload=st.text(max_size=16))
    def test_decoded_twin_mutation_diverges_from_source_digest(self, payload):
        """Tamper-after-decode (the byzantine twist pattern) always yields
        a frame and digest that differ from the source message's."""
        from repro.crypto.digest import digest_of
        from repro.smr.messages import Request
        from repro.wire.codec import decode, encode

        request = Request(
            operation=Operation("put", ("key",), payload), timestamp=7, client_id="c"
        )
        twin = decode(encode(request))
        assert digest_of(twin) == digest_of(request)
        twin.operation = Operation("put", ("key",), payload + "-tampered")
        assert digest_of(twin) != digest_of(request)
        assert encode(twin) != encode(request)


class TestSimulatorProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_events_fire_in_timestamp_order(self, delays):
        simulator = Simulator()
        fired = []
        for delay in delays:
            simulator.call_later(delay, lambda d=delay: fired.append(simulator.now))
        simulator.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5, 10.0]), min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_events_fire_by_time_then_in_scheduling_order(self, times):
        simulator = Simulator()
        fired = []
        for index, time in enumerate(times):
            simulator.call_at(time, lambda entry=(time, index): fired.append(entry))
        simulator.run()
        assert fired == sorted(fired)
        assert len(fired) == len(times)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["call_later", "call_at", "defer", "cancel", "start", "stop"]),
                st.floats(min_value=0.0, max_value=10.0),
                st.integers(0, 1_000),
                st.integers(1, 32),  # repeats, so heaps reach the compaction floor
            ),
            max_size=40,
        )
    )
    @settings(max_examples=100)
    def test_pending_events_is_what_fires(self, operations):
        """Over any mix of scheduling and cancelling, ``pending_events`` is
        exactly the number of callbacks still to fire, compactions included."""
        simulator = Simulator()
        fired = []
        events = []
        timers = [simulator.timer(lambda: fired.append("timer")) for _ in range(3)]
        for operation, when, pick, repeat in operations:
            for index in range(pick, pick + repeat):
                if operation == "call_later":
                    events.append(simulator.call_later(when, lambda: fired.append("later")))
                elif operation == "call_at":
                    events.append(simulator.call_at(when, lambda: fired.append("at")))
                elif operation == "defer":
                    simulator.defer(when, fired.append, ("defer",))
                elif operation == "cancel" and events:
                    simulator.cancel(events[index % len(events)])
                elif operation == "start":
                    timers[index % 3].start(when)
                elif operation == "stop":
                    timers[index % 3].stop()
        pending = simulator.pending_events
        simulator.run(until=5.0)
        assert simulator.pending_events == pending - len(fired)
        simulator.run()
        assert len(fired) == pending
        assert simulator.pending_events == 0


class TestSlotLogProperties:
    @given(
        st.lists(st.integers(1, 200), min_size=1, max_size=60),
        st.integers(0, 150),
    )
    @settings(max_examples=50)
    def test_collect_below_never_loses_higher_slots(self, sequences, watermark):
        log = SlotLog()
        for sequence in sequences:
            log.slot(sequence).digest = f"digest-{sequence}"
        log.collect_below(watermark)
        assert all(sequence > watermark for sequence in log.sequences)
        expected_survivors = {s for s in sequences if s > watermark}
        assert set(log.sequences) == expected_survivors
        assert log.low_watermark >= min(watermark, log.low_watermark)

    @given(st.lists(st.tuples(st.integers(1, 30), st.sampled_from(["a", "b", "c"])), max_size=80))
    @settings(max_examples=50)
    def test_vote_counts_never_exceed_distinct_voters(self, votes):
        log = SlotLog()
        voters_per_slot = {}
        for sequence, voter in votes:
            slot = log.slot(sequence)
            slot.record_vote("accept", voter, digest=None)
            voters_per_slot.setdefault(sequence, set()).add(voter)
        for sequence, voters in voters_per_slot.items():
            assert log.slot(sequence).vote_count("accept") == len(voters)


@st.composite
def view_change_sets(draw):
    """Two to five view changes over sequences 1-4, views 0-3 and two or three digests."""
    digests = ["a" * 64, "b" * 64, "c" * 64][: draw(st.integers(2, 3))]
    reports = st.dictionaries(
        st.integers(1, 4), st.tuples(st.integers(0, 3), st.sampled_from(digests))
    )
    return [
        SimpleNamespace(
            checkpoint_sequence=draw(st.integers(0, 1)),
            prepared=[
                Entry(sequence, view, digest) for sequence, (view, digest) in draw(reports).items()
            ],
        )
        for _ in range(draw(st.integers(2, 5)))
    ]


class TestNewViewReconciliationProperties:
    """``reconcile``, the one rule every protocol's collector applies."""

    @given(votes=view_change_sets(), data=st.data(), promote_at=st.sampled_from([None, 2, 3]))
    @settings(max_examples=200, derandomize=True)
    def test_the_new_view_does_not_depend_on_arrival_order(self, votes, data, promote_at):
        reordered = data.draw(st.permutations(votes))
        assert reconcile(reordered, 5, promote_at) == reconcile(votes, 5, promote_at)

    @given(votes=view_change_sets())
    @settings(max_examples=200, derandomize=True)
    def test_each_chosen_digest_was_prepared_in_the_highest_view_reported(self, votes):
        checkpoint, commits, prepares = reconcile(votes, 5)
        assert commits == []
        reported = [
            entry for vote in votes for entry in vote.prepared if entry.sequence > checkpoint
        ]
        highest = max([entry.sequence for entry in reported], default=checkpoint)
        assert [entry.sequence for entry in prepares] == list(range(checkpoint + 1, highest + 1))
        for chosen in prepares:
            assert chosen.view == 5
            candidates = [entry for entry in reported if entry.sequence == chosen.sequence]
            if not candidates:
                assert chosen.digest == request_digest(noop_request(chosen.sequence))
                continue
            top = max(entry.view for entry in candidates)
            assert chosen.digest in {entry.digest for entry in candidates if entry.view == top}
