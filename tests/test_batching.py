"""Unit and property-based tests for the batching subsystem.

The :class:`~repro.core.batching.Batcher` sits between request intake and
per-mode proposal, so its contract is what keeps batching safe: every
enqueued request is proposed exactly once, in arrival order, regardless of
how arrivals interleave with linger timeouts, pipeline stalls, and refused
proposals.  The Hypothesis suite drives arbitrary arrival schedules through
a real simulator to pin that contract down.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batching import Batcher, BatchPolicy
from repro.sim import Simulator
from repro.smr.messages import Batch, Request, requests_of
from repro.smr.state_machine import Operation


def make_request(client: str, timestamp: int) -> Request:
    return Request(
        operation=Operation("noop"), timestamp=timestamp, client_id=client, signed=False
    )


class RecordingProposer:
    """Accepts proposals, handing out sequence numbers; can be paused."""

    def __init__(self) -> None:
        self.payloads = []
        self.next_sequence = 1
        self.refuse = False

    def __call__(self, payload):
        if self.refuse:
            return None
        sequence = self.next_sequence
        self.next_sequence += 1
        self.payloads.append((sequence, payload))
        return sequence

    def proposed_requests(self):
        flat = []
        for _, payload in self.payloads:
            flat.extend(requests_of(payload))
        return flat


def build_batcher(policy, simulator=None, proposer=None):
    simulator = simulator or Simulator()
    proposer = proposer or RecordingProposer()
    batcher = Batcher(
        policy, timer_factory=simulator.timer, propose=proposer, clock=lambda: simulator.now
    )
    return simulator, proposer, batcher


class TestBatchPolicy:
    def test_default_policy_is_unbatched(self):
        policy = BatchPolicy()
        assert policy.max_batch == 1
        assert policy.linger == 0.0
        assert policy.pipeline_depth is None
        assert not policy.batching_enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"max_batch": -3},
            {"linger": -0.1},
            {"pipeline_depth": 0},
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BatchPolicy(**kwargs)

    def test_batching_enabled_flags(self):
        assert BatchPolicy(max_batch=8).batching_enabled
        assert BatchPolicy(linger=0.001).batching_enabled
        assert BatchPolicy(pipeline_depth=2).batching_enabled


class TestBatchMessage:
    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            Batch(requests=[])

    def test_batch_digest_depends_on_order(self):
        from repro.crypto.digest import digest

        a, b = make_request("c0", 1), make_request("c1", 1)
        assert digest(Batch(requests=[a, b]).signing_content()) != digest(
            Batch(requests=[b, a]).signing_content()
        )

    def test_batch_wire_size_grows_with_requests(self):
        a, b = make_request("c0", 1), make_request("c0", 2)
        assert Batch(requests=[a, b]).wire_size() > Batch(requests=[a]).wire_size()

    def test_requests_of_unwraps(self):
        a, b = make_request("c0", 1), make_request("c0", 2)
        assert requests_of(a) == [a]
        assert requests_of(Batch(requests=[a, b])) == [a, b]


class TestBatcherBasics:
    def test_unbatched_policy_proposes_bare_requests_immediately(self):
        _, proposer, batcher = build_batcher(BatchPolicy())
        request = make_request("c0", 1)
        batcher.enqueue(request)
        assert proposer.payloads == [(1, request)]
        assert batcher.queued == 0

    def test_full_batch_flushes_without_linger_expiry(self):
        simulator, proposer, batcher = build_batcher(BatchPolicy(max_batch=3, linger=10.0))
        for ts in range(1, 4):
            batcher.enqueue(make_request("c0", ts))
        assert len(proposer.payloads) == 1
        _, payload = proposer.payloads[0]
        assert isinstance(payload, Batch) and len(payload) == 3

    def test_linger_timer_flushes_partial_batch(self):
        simulator, proposer, batcher = build_batcher(BatchPolicy(max_batch=8, linger=0.01))
        batcher.enqueue(make_request("c0", 1))
        batcher.enqueue(make_request("c0", 2))
        assert proposer.payloads == []
        simulator.run(until=0.02)
        assert len(proposer.payloads) == 1
        assert len(requests_of(proposer.payloads[0][1])) == 2

    def test_singleton_flush_is_a_bare_request(self):
        simulator, proposer, batcher = build_batcher(BatchPolicy(max_batch=8, linger=0.01))
        request = make_request("c0", 1)
        batcher.enqueue(request)
        simulator.run(until=0.02)
        assert proposer.payloads[0][1] is request

    def test_duplicate_queued_request_ignored(self):
        _, proposer, batcher = build_batcher(BatchPolicy(max_batch=4, linger=5.0))
        request = make_request("c0", 1)
        assert batcher.enqueue(request)
        assert not batcher.enqueue(make_request("c0", 1))
        assert batcher.queued == 1

    def test_refused_proposal_keeps_requests_queued(self):
        simulator, proposer, batcher = build_batcher(BatchPolicy())
        proposer.refuse = True
        batcher.enqueue(make_request("c0", 1))
        assert batcher.queued == 1
        proposer.refuse = False
        batcher.enqueue(make_request("c0", 2))
        assert batcher.queued == 0
        assert len(proposer.proposed_requests()) == 2

    def test_pipeline_depth_blocks_until_commit(self):
        _, proposer, batcher = build_batcher(BatchPolicy(pipeline_depth=1))
        batcher.enqueue(make_request("c0", 1))
        batcher.enqueue(make_request("c0", 2))
        batcher.enqueue(make_request("c0", 3))
        assert len(proposer.payloads) == 1
        assert batcher.queued == 2
        batcher.on_slot_committed(1)
        # The freed slot flushes the backlog (as one batch-of-1 at a time
        # under max_batch=1).
        assert len(proposer.payloads) == 2
        batcher.on_slot_committed(2)
        assert len(proposer.payloads) == 3

    def test_pipeline_stall_accumulates_fuller_batches(self):
        _, proposer, batcher = build_batcher(BatchPolicy(max_batch=8, pipeline_depth=1))
        batcher.enqueue(make_request("c0", 1))
        for ts in range(2, 6):
            batcher.enqueue(make_request("c0", ts))
        assert len(proposer.payloads) == 1  # the stalled pipeline buffered 4
        batcher.on_slot_committed(1)
        assert len(proposer.payloads) == 2
        assert len(requests_of(proposer.payloads[1][1])) == 4

    def test_drain_returns_buffered_requests_in_order(self):
        _, proposer, batcher = build_batcher(BatchPolicy(max_batch=8, linger=5.0))
        requests = [make_request("c0", ts) for ts in range(1, 4)]
        for request in requests:
            batcher.enqueue(request)
        assert batcher.drain() == requests
        assert batcher.queued == 0

    def test_pause_buffers_and_resume_flushes(self):
        simulator, proposer, batcher = build_batcher(BatchPolicy(max_batch=4))
        batcher.pause()
        batcher.enqueue(make_request("c0", 1))
        batcher.enqueue(make_request("c0", 2))
        simulator.run(until=1.0)
        assert proposer.payloads == [] and batcher.queued == 2
        batcher.resume()
        assert batcher.queued == 0
        assert len(proposer.proposed_requests()) == 2

    def test_pause_disarms_linger_timer(self):
        simulator, proposer, batcher = build_batcher(BatchPolicy(max_batch=4, linger=0.01))
        batcher.enqueue(make_request("c0", 1))
        batcher.pause()
        simulator.run(until=0.05)
        assert proposer.payloads == []

    def test_forget_in_flight_below_reopens_pipeline(self):
        _, proposer, batcher = build_batcher(BatchPolicy(pipeline_depth=1))
        batcher.enqueue(make_request("c0", 1))
        batcher.enqueue(make_request("c0", 2))
        assert len(proposer.payloads) == 1  # pipeline full, seq 1 in flight
        # A snapshot adoption advanced the commit frontier past seq 1 without
        # a finalize ever firing here.
        batcher.forget_in_flight_below(1)
        assert len(proposer.payloads) == 2

    def test_mean_batch_size_telemetry(self):
        _, proposer, batcher = build_batcher(BatchPolicy(max_batch=2))
        for ts in range(1, 5):
            batcher.enqueue(make_request("c0", ts))
        assert batcher.batches_proposed == 4  # linger=0 flushes every arrival
        assert batcher.mean_batch_size() == 1.0


class TestLingerFollowsTheArrivalGap:
    """An under-full batch waits out ``linger`` only while the smoothed gap
    between fresh arrivals is below it, i.e. while another request is due
    before the timer would fire."""

    POLICY = BatchPolicy(max_batch=16, linger=0.002)

    @staticmethod
    def schedule(simulator, batcher, times, first_timestamp=1, after=None):
        """Enqueue one fresh request from ``c0`` at each of ``times``."""
        for timestamp, at in enumerate(times, start=first_timestamp):

            def arrive(request=make_request("c0", timestamp)):
                batcher.enqueue(request)
                if after is not None:
                    after()

            simulator.call_at(at, arrive)

    def test_sparse_arrivals_are_proposed_at_once(self):
        simulator, proposer, batcher = build_batcher(self.POLICY)
        seen = []
        self.schedule(
            simulator,
            batcher,
            [0.010 * k for k in range(1, 21)],
            after=lambda: seen.append((batcher.queued, batcher._linger_timer.active)),
        )
        simulator.run(until=1.0)
        # Until six 10 ms gaps (each counted as the 4 ms cap) lift the estimate
        # from 0 past the linger, an arrival waits it out; from then on every
        # arrival is proposed on the spot and no timer is armed.
        assert seen[:6] == [(1, True)] * 6
        assert seen[6:] == [(0, False)] * 14
        assert [len(requests_of(payload)) for _, payload in proposer.payloads] == [1] * 20

    def test_a_burst_still_lingers_and_fills_to_max_batch(self):
        simulator, proposer, batcher = build_batcher(self.POLICY)
        times = [0.00005 * k for k in range(1, 21)]  # 20 arrivals 50 us apart
        self.schedule(simulator, batcher, times)
        simulator.run(until=times[16] + 0.0019)
        assert [len(requests_of(payload)) for _, payload in proposer.payloads] == [16]
        assert batcher.queued == 4
        simulator.run(until=times[16] + 0.0021)  # the linger armed by the 17th expires
        assert [len(requests_of(payload)) for _, payload in proposer.payloads] == [16, 4]

    def test_an_idle_spell_does_not_disable_batching_for_the_next_burst(self):
        simulator, proposer, batcher = build_batcher(self.POLICY)
        # 40 arrivals 50 ms apart hold the estimate at its cap (2 x linger).
        self.schedule(simulator, batcher, [0.050 * k for k in range(1, 41)])
        simulator.run(until=2.5)
        before = len(proposer.payloads)
        # Ten seconds of silence, then 32 back-to-back arrivals.  The idle gap
        # counts as 4 ms, not 10 s, so the estimate falls below the linger
        # after six of them (uncapped, all 32 would go out alone).
        self.schedule(simulator, batcher, [12.0] * 32, first_timestamp=41)
        simulator.run(until=13.0)
        assert len(proposer.payloads) - before <= 8
        assert len(proposer.proposed_requests()) == 72

    def test_a_duplicate_leaves_the_estimate_unchanged(self):
        simulator, proposer, batcher = build_batcher(self.POLICY)
        self.schedule(simulator, batcher, [0.001, 0.0015])
        simulator.run(until=0.0016)
        estimate = (batcher._arrival_gap, batcher._last_arrival)
        assert estimate[0] > 0
        # A retransmission of the still-queued second request.
        simulator.call_at(0.0017, lambda: batcher.enqueue(make_request("c0", 2)))
        simulator.run(until=0.0018)
        assert batcher.queued == 2
        assert (batcher._arrival_gap, batcher._last_arrival) == estimate

    def test_without_linger_the_clock_is_never_read(self):
        def clock():
            raise AssertionError("a batcher with linger == 0 read the clock")

        proposer = RecordingProposer()
        batcher = Batcher(
            BatchPolicy(max_batch=16),
            timer_factory=Simulator().timer,
            propose=proposer,
            clock=clock,
        )
        for timestamp in range(1, 4):
            batcher.enqueue(make_request("c0", timestamp))
        assert len(proposer.payloads) == 3


# -- property-based: the exactly-once / in-order contract -----------------------

ARRIVALS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),  # client index
        st.integers(min_value=0, max_value=15),  # inter-arrival gap in ms
    ),
    min_size=1,
    max_size=40,
)

POLICIES = st.builds(
    BatchPolicy,
    max_batch=st.integers(min_value=1, max_value=8),
    linger=st.sampled_from([0.0, 0.001, 0.004]),
    pipeline_depth=st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
)


class TestBatcherProperties:
    @settings(max_examples=120, deadline=None)
    @given(arrivals=ARRIVALS, policy=POLICIES, commit_delay_ms=st.integers(1, 8))
    def test_no_request_dropped_duplicated_or_reordered(
        self, arrivals, policy, commit_delay_ms
    ):
        """Every arrival is proposed exactly once, in arrival order,
        for arbitrary arrival schedules, linger timeouts, and commit timing."""
        simulator, proposer, batcher = build_batcher(policy)

        # Commits free pipeline slots a fixed delay after each proposal.
        base_propose = proposer.__call__

        def propose_and_schedule_commit(payload):
            sequence = base_propose(payload)
            if sequence is not None:
                simulator.call_later(
                    commit_delay_ms / 1000.0,
                    lambda seq=sequence: batcher.on_slot_committed(seq),
                )
            return sequence

        batcher._propose = propose_and_schedule_commit

        issued = []
        clock = 0.0
        timestamps = {}
        for client_index, gap_ms in arrivals:
            clock += gap_ms / 1000.0
            client = f"client-{client_index}"
            timestamps[client] = timestamps.get(client, 0) + 1
            request = make_request(client, timestamps[client])
            issued.append(request)
            simulator.call_at(clock, lambda r=request: batcher.enqueue(r))

        simulator.run(until=clock + 5.0)

        proposed = proposer.proposed_requests()
        issued_keys = [(r.client_id, r.timestamp) for r in issued]
        proposed_keys = [(r.client_id, r.timestamp) for r in proposed]
        assert proposed_keys == issued_keys, (
            "proposal order must equal arrival order with no drops or duplicates"
        )
        assert batcher.queued == 0

    @settings(max_examples=60, deadline=None)
    @given(arrivals=ARRIVALS, policy=POLICIES)
    def test_batch_sizes_respect_policy(self, arrivals, policy):
        simulator, proposer, batcher = build_batcher(policy)
        clock = 0.0
        timestamps = {}
        for client_index, gap_ms in arrivals:
            clock += gap_ms / 1000.0
            client = f"client-{client_index}"
            timestamps[client] = timestamps.get(client, 0) + 1
            request = make_request(client, timestamps[client])
            simulator.call_at(clock, lambda r=request: batcher.enqueue(r))
        simulator.run(until=clock + 5.0)

        for sequence, payload in proposer.payloads:
            size = len(requests_of(payload))
            assert 1 <= size <= policy.max_batch
            if size == 1:
                assert not isinstance(payload, Batch), "batches of one stay bare requests"

    @settings(max_examples=60, deadline=None)
    @given(
        arrivals=ARRIVALS,
        policy=POLICIES,
        refuse_first=st.integers(min_value=0, max_value=5),
    )
    def test_refused_proposals_are_retried_not_lost(self, arrivals, policy, refuse_first):
        """Even when the first N proposals are refused (view change in
        progress), every request is eventually proposed exactly once."""
        proposer = RecordingProposer()
        refusals = {"left": refuse_first}

        def flaky_propose(payload):
            if refusals["left"] > 0:
                refusals["left"] -= 1
                return None
            return proposer(payload)

        simulator, _, batcher = build_batcher(policy, proposer=flaky_propose)

        clock = 0.0
        timestamps = {}
        issued = []
        for client_index, gap_ms in arrivals:
            clock += gap_ms / 1000.0
            client = f"client-{client_index}"
            timestamps[client] = timestamps.get(client, 0) + 1
            request = make_request(client, timestamps[client])
            issued.append(request)
            simulator.call_at(clock, lambda r=request: batcher.enqueue(r))
        simulator.run(until=clock + 5.0)
        # A trailing refusal can leave requests queued (the real replica pumps
        # again on the next commit or view change); drain and count them once.
        leftovers = batcher.drain()

        seen = [(r.client_id, r.timestamp) for r in proposer.proposed_requests()]
        seen += [(r.client_id, r.timestamp) for r in leftovers]
        assert sorted(seen) == sorted((r.client_id, r.timestamp) for r in issued)
        assert len(set(seen)) == len(seen)
