"""Regression tests for the content-addressed digest/signature caches.

The hot-path overhaul freezes a message's *wire form* (canonical content,
digest, size) on first use.  Byzantine behaviour injection mutates copies
of live messages, so these tests pin the two invalidation guarantees the
caches must keep:

* ``copy.copy`` never inherits a cached digest — every ``make_*`` twist in
  :mod:`repro.faults.byzantine` starts with a copy, so a twisted message
  applied to a *warm* cache must still hash to its own (different) content;
* assigning any content field in place drops the cached forms, so even a
  twist that skipped the copy would be re-canonicalized.

They also pin what an executed payload keeps once it releases its frames:
its digest, modeled size and frame length, and a rebuild that must hash to
that digest.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import messages as core_msgs
from repro.core.batching import BatchPolicy
from repro.core.modes import Mode
from repro.crypto.digest import digest, digest_bytes, digest_of
from repro.crypto.keys import KeyStore
from repro.crypto.signatures import Signature
from repro.faults.byzantine import tampered_payload, tampered_request
from repro.smr.messages import _WIRE_SLICE_ATTR, Batch, FrameMismatch, Reply, Request, requests_of
from repro.smr.replica import request_digest
from repro.smr.state_machine import Operation


@pytest.fixture
def keys():
    store = KeyStore()
    for node in ("p0", "r1", "byz", "client-0"):
        store.register(node)
    return store


def make_request(timestamp: int = 1, client: str = "client-0") -> Request:
    return Request(
        operation=Operation(kind="put", args=("k", "v"), payload="xy"),
        timestamp=timestamp,
        client_id=client,
    )


def make_batch(count: int = 4) -> Batch:
    return Batch(requests=[make_request(timestamp=i + 1) for i in range(count)])


class TestDigestCaching:
    def test_cached_digest_equals_uncached(self):
        # Request defines a flat signing_bytes canonical form.
        request = make_request()
        cold = digest_bytes(request.signing_bytes())
        warm = digest_of(request)
        assert warm == cold
        # Second call must serve the cache and agree.
        assert digest_of(request) == cold

    def test_view_change_digest_is_its_frame_digest(self):
        # View changes moved off the JSON form: like every other type they
        # digest (and sign) their binary frame.
        view_change = core_msgs.ViewChange(
            new_view=1, mode=1, replica_id="p0", checkpoint_sequence=0,
            checkpoint_digest="c" * 64,
            prepared=[core_msgs.PreparedEntry(1, 0, "d" * 64, make_request())],
        )
        cold = digest_bytes(view_change.signing_bytes())
        assert digest_of(view_change) == cold
        assert digest_of(view_change) == cold  # cache hit agrees
        view_change.prepared = []
        assert digest_of(view_change) != cold

    def test_cache_is_object_local(self):
        first, second = make_request(1), make_request(2)
        assert digest_of(first) != digest_of(second)

    def test_copy_drops_cached_digest(self):
        request = make_request()
        warm = digest_of(request)  # warm the cache
        clone = copy.copy(request)
        assert "_content_digest" not in clone.__dict__
        clone.operation = Operation(kind="put", args=("k", "other"))
        assert digest_of(clone) != warm

    def test_in_place_mutation_invalidates(self):
        request = make_request()
        warm = digest_of(request)
        request.timestamp = 999
        assert digest_of(request) != warm

    def test_signature_assignment_keeps_content_cache(self, keys):
        request = make_request()
        request.sign(keys.signer_for("client-0"))
        warm = request.__dict__.get("_content_digest")
        assert warm is not None  # sign() warmed it
        request.signature = None
        assert request.__dict__.get("_content_digest") == warm

    def test_wire_size_cache_dropped_on_copy_and_mutation(self):
        batch = make_batch()
        size = batch.cached_wire_size()
        clone = copy.copy(batch)
        assert "_wire_size" not in clone.__dict__
        clone.requests = batch.requests[:1]
        assert clone.cached_wire_size() < size


class TestByzantineTwistsAgainstWarmCaches:
    """Every make_* twist must produce a digest mismatch despite warm caches."""

    def test_tampered_request_differs_with_warm_cache(self):
        request = make_request()
        warm = request_digest(request)
        twisted = tampered_request(request)
        assert request_digest(twisted) != warm
        # The original's cache is untouched and still correct.
        assert request_digest(request) == warm == digest_bytes(request.signing_bytes())

    def test_tampered_batch_differs_with_warm_cache(self):
        batch = make_batch()
        warm = request_digest(batch)
        for inner in batch.requests:
            digest_of(inner)  # warm every inner request too
        twisted = tampered_payload(batch)
        assert request_digest(twisted) != warm
        # Untampered inner requests may share digests; the tampered one must not.
        assert digest_of(twisted.requests[0]) != digest_of(batch.requests[0])

    @pytest.mark.parametrize("mode", [Mode.LION, Mode.DOG, Mode.PEACOCK])
    def test_equivocating_copy_is_self_consistent_but_conflicting(self, keys, mode):
        """The conflicting_copy logic of make_equivocating, against warm caches."""
        batch = make_batch()
        ordering_cls = core_msgs.PrePrepare if mode is Mode.PEACOCK else core_msgs.Prepare
        honest = ordering_cls(
            view=0, sequence=1, digest=request_digest(batch), request=batch, mode=int(mode)
        )
        honest.sign(keys.signer_for("byz"))
        assert honest.verify(keys.verifier(), expected_signer="byz")

        # Exactly what make_equivocating's conflicting_copy does.
        twisted = copy.copy(honest)
        twisted.request = tampered_payload(honest.request)
        twisted.digest = request_digest(twisted.request)
        twisted.sign(keys.signer_for("byz"))

        # Self-consistent: a correct replica's checks pass in isolation ...
        assert twisted.digest == request_digest(twisted.request)
        assert twisted.verify(keys.verifier(), expected_signer="byz")
        # ... yet it genuinely conflicts with the honest proposal.
        assert twisted.digest != honest.digest
        # And the honest message's cached forms were not disturbed.
        assert honest.digest == request_digest(honest.request)
        assert honest.verify(keys.verifier(), expected_signer="byz")

    def test_lying_reply_with_warm_cache_diverges(self, keys):
        honest = Reply(
            mode=1, view=0, timestamp=1, client_id="client-0", replica_id="byz",
            result={"ok": True, "value": 1},
        )
        honest.sign(keys.signer_for("byz"))
        warm_key = honest.result_digest()

        lie = copy.copy(honest)
        lie.result = {"ok": False, "value": "forged-by-byz"}
        lie.sign(keys.signer_for("byz"))
        # The lie verifies (the Byzantine replica signs its own lie) but the
        # result digest clients vote on is different — quorum matching wins.
        assert lie.verify(keys.verifier(), expected_signer="byz")
        assert lie.result_digest() != warm_key

    def test_corrupt_signature_with_warm_verify_cache_is_rejected(self, keys):
        message = core_msgs.Commit(
            view=0, sequence=1, digest="d" * 64, replica_id="byz", mode=1
        )
        message.sign(keys.signer_for("byz"))
        # Warm both the digest cache and the signature's verify memo.
        assert message.verify(keys.verifier(), expected_signer="byz")

        twisted = copy.copy(message)
        twisted.signature = Signature(
            signer_id=message.signature.signer_id,
            payload_digest=message.signature.payload_digest,
            tag="0" * 64,
        )
        assert not twisted.verify(keys.verifier(), expected_signer="byz")
        # The original is still accepted.
        assert message.verify(keys.verifier(), expected_signer="byz")

    def test_forged_signature_never_verifies(self, keys):
        request = make_request()
        forged = keys.signer_for("byz").forge(request.signing_content(), "p0")
        request.signature = forged
        assert not request.verify(keys.verifier(), expected_signer="p0")


class TestResultDigestMemo:
    def test_equal_hashing_but_distinct_canonical_values_do_not_collide(self):
        """(1,) == (True,) hash-equal but canonicalize differently; the memo
        must not conflate results embedding them."""
        from repro.smr.state_machine import result_digest

        first = result_digest({"ok": True, "value": (1,)})
        second = result_digest({"ok": True, "value": (True,)})
        assert first == digest({"ok": True, "value": (1,)})
        assert second == digest({"ok": True, "value": (True,)})
        assert first != second

    def test_scalar_bool_vs_int_values_do_not_collide(self):
        from repro.smr.state_machine import result_digest

        assert result_digest({"ok": 1}) != result_digest({"ok": True})
        assert result_digest({"ok": 1}) == digest({"ok": 1})

    def test_signed_zero_floats_do_not_collide(self):
        from repro.smr.state_machine import result_digest

        assert result_digest({"v": 0.0}) == digest({"v": 0.0})
        assert result_digest({"v": -0.0}) == digest({"v": -0.0})
        assert result_digest({"v": 0.0}) != result_digest({"v": -0.0})


ARGS = st.one_of(
    st.integers(), st.floats(allow_nan=False), st.text(max_size=12), st.just("ünïcødé €")
)
# Short payloads, 4 KB ones (the paper's 4/0) and non-ASCII ones.
PAYLOAD_TEXT = st.one_of(
    st.text(max_size=24),
    st.builds(lambda char, size: char * size, st.sampled_from("xé€😀"), st.just(4096)),
)
REQUESTS = st.builds(
    Request,
    operation=st.builds(
        Operation,
        kind=st.sampled_from(["put", "get", "wrïte"]),
        args=st.lists(ARGS, max_size=3).map(tuple),
        payload=PAYLOAD_TEXT,
    ),
    timestamp=st.integers(min_value=1, max_value=2**40),
    client_id=st.sampled_from(["client-0", "clïent-1"]),
)
PAYLOADS = st.one_of(
    REQUESTS, st.builds(Batch, requests=st.lists(REQUESTS, min_size=1, max_size=4))
)


class TestReleasedFrames:
    """An executed payload drops its frames and keeps what is read of them."""

    @given(payload=PAYLOADS)
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_a_released_payload_rebuilds_its_own_bytes(self, payload):
        frame = payload.wire_slice()
        inner = [request.wire_slice() for request in requests_of(payload)]
        content_digest, size = digest_of(payload), payload.cached_wire_size()

        payload.release_wire_frames()
        for message in (payload, *requests_of(payload)):
            assert _WIRE_SLICE_ATTR not in message.__dict__
        assert payload.wire_length() == len(frame)
        assert digest_of(payload) == content_digest
        assert payload.cached_wire_size() == size
        assert payload.wire_slice() == frame
        assert [request.wire_slice() for request in requests_of(payload)] == inner

    @given(payload=PAYLOADS)
    @settings(derandomize=True, max_examples=30, deadline=None)
    def test_a_rebuild_that_disagrees_with_the_kept_digest_raises(self, payload):
        digest_of(payload)
        payload.release_wire_frames()
        lead = requests_of(payload)[0]
        # Test-only: a direct ``__dict__`` edit skips the cache guard that an
        # assignment would trip, so the kept digest no longer fits the fields.
        lead.__dict__["timestamp"] = lead.timestamp + 1
        with pytest.raises(FrameMismatch):
            payload.wire_slice()

    def test_a_release_keeps_a_digest_never_computed_before(self):
        request = make_request()
        frame = request.wire_slice()
        request.release_wire_frames()
        assert request.__dict__["_content_digest"] == digest_bytes(frame)


class TestForcedSlotBookkeeping:
    def test_force_superseding_payload_rerecords_assignments(self):
        """A certified payload that force-replaces a stale tentative one must
        record its own sequence assignments (a skipped walk once lost them)."""
        from repro.cluster import build_seemore
        from repro.smr.replica import request_digest as rd

        deployment = build_seemore(mode=Mode.LION, num_clients=1)
        replica = next(iter(deployment.replicas.values()))

        tentative = make_request(timestamp=1, client="client-A")
        certified = make_request(timestamp=2, client="client-B")
        replica.fill_slot(1, rd(tentative), tentative, None)
        assert replica.already_assigned(tentative)

        replica.fill_slot(1, rd(certified), certified, None, force=True)
        assert replica.already_assigned(certified)
        assert replica.slots.slot(1).request is certified


@pytest.mark.integration
@pytest.mark.parametrize("mode", [Mode.LION, Mode.DOG, Mode.PEACOCK])
@pytest.mark.parametrize("strategy", ["equivocate", "lie", "corrupt"])
def test_byzantine_strategy_safe_with_digest_cache_and_batching(mode, strategy):
    """End-to-end: each twist, each mode, max_batch > 1, caches enabled.

    Runs long enough for caches to be warm on every replica before the twist
    fires, then asserts the PR 2 invariants (no fork, no forged results)
    still hold.
    """
    from repro.scenarios.engine import Scenario, run_scenario
    from repro.scenarios.events import Byzantine

    scenario = Scenario(
        name=f"cache-{strategy}",
        description="byzantine twist against warm digest caches",
        batch_policy=BatchPolicy(max_batch=4, linger=0.001),
        client_window=2,
        events=(Byzantine(at=0.15, target="public-primary", strategy=strategy),),
        duration=0.5,
        settle=0.15,
        min_completed=10,
    )
    run_scenario(scenario, mode).assert_ok()
