"""Batch-amortized signature verification: fallback isolation and evidence.

The :class:`~repro.crypto.signatures.WindowVerifier` fronts every replica's
and client's signature checks.  Its fast paths (signature memos, group
MACs over memo-warm signatures) only amortize *bookkeeping* — soundness
requires that any anomaly falls back to the reference per-message path and
isolates exactly the tampered messages.  These tests pin:

* ``verify_batch`` returns exactly the tampered indices, for every way a
  message can be bad (corrupted tag, content mutated after signing, forged
  signer, unknown signer);
* every ``faults/byzantine.py`` twist is still detected end-to-end now
  that twists decode-and-re-encode wire frames;
* the ``EvidenceLog`` invalid-signature records a deployment emits are
  *identical* under windowed and under per-message verification.
"""

import pytest

from repro.adaptive.evidence import EvidenceKind
from repro.cluster import build_seemore, run_deployment
from repro.core import BatchPolicy, Mode
from repro.crypto import KeyStore
from repro.crypto.signatures import Signature, WindowVerifier
from repro.faults import make_byzantine
from repro.smr.ledger import assert_ledgers_consistent
from repro.smr.messages import Request
from repro.smr.state_machine import Operation
from repro.workload import Workload

BATCHING = BatchPolicy(max_batch=4, linger=0.001)


def build(mode, **kwargs):
    return build_seemore(
        crash_tolerance=1,
        byzantine_tolerance=1,
        mode=mode,
        workload=Workload.build("0/0"),
        num_clients=kwargs.pop("num_clients", 2),
        seed=kwargs.pop("seed", 33),
        client_timeout=kwargs.pop("client_timeout", 0.1),
        batch_policy=kwargs.pop("batch_policy", BATCHING),
        client_window=kwargs.pop("client_window", 4),
        **kwargs,
    )


def signed_requests(signer, client_id, count):
    requests = []
    for index in range(count):
        request = Request(
            operation=Operation("put", (f"k{index}", f"v{index}")),
            timestamp=index + 1,
            client_id=client_id,
        )
        request.sign(signer)
        requests.append(request)
    return requests


@pytest.fixture
def channel():
    keystore = KeyStore()
    keystore.register("sender")
    signer = keystore.signer_for("sender")
    verifier = keystore.verifier()
    return signer, verifier, WindowVerifier(verifier)


class TestBatchFallbackIsolation:
    def test_all_valid_messages_take_the_group_fast_path(self, channel):
        signer, _, window = channel
        messages = signed_requests(signer, "sender", 8)
        assert window.verify_batch("sender", messages) == []
        assert window.fallback_verifications == 0
        assert window.messages_verified == 8

    def test_content_tampering_is_isolated_to_the_exact_index(self, channel):
        signer, _, window = channel
        messages = signed_requests(signer, "sender", 8)
        # Mutate content after signing: the wire caches drop, the recomputed
        # frame digest no longer matches the signed digest.
        messages[5].timestamp = 999
        assert window.verify_batch("sender", messages) == [5]
        assert window.fallback_verifications == 8

    def test_corrupted_signature_is_isolated_to_the_exact_index(self, channel):
        signer, _, window = channel
        messages = signed_requests(signer, "sender", 6)
        good = messages[2].signature
        messages[2].signature = Signature(
            signer_id=good.signer_id, payload_digest=good.payload_digest, tag="0" * 64
        )
        assert window.verify_batch("sender", messages) == [2]

    def test_multiple_tampered_messages_are_all_isolated(self, channel):
        signer, _, window = channel
        messages = signed_requests(signer, "sender", 8)
        messages[1].timestamp = 101
        messages[4].timestamp = 104
        messages[7].signature = None
        assert window.verify_batch("sender", messages) == [1, 4, 7]

    def test_wrong_claimed_signer_fails_every_message_it_signed(self, channel):
        signer, verifier, _ = channel
        window = WindowVerifier(verifier)
        messages = signed_requests(signer, "sender", 4)
        assert window.verify_batch("someone-else", messages) == [0, 1, 2, 3]

    def test_unknown_signer_has_no_fast_path_and_no_false_accepts(self, channel):
        signer, verifier, window = channel
        messages = signed_requests(signer, "sender", 3)
        ghost = WindowVerifier(verifier)
        assert ghost.verify_batch("ghost", messages) == [0, 1, 2]

    def test_unsigned_messages_pass_without_crypto(self, channel):
        signer, _, window = channel
        messages = signed_requests(signer, "sender", 4)
        for message in messages:
            message.signed = False
            message.signature = None
        assert window.verify_batch("sender", messages) == []
        assert window.messages_verified == 0  # nothing needed verification

    def test_batch_verdicts_match_the_reference_path_exactly(self, channel):
        signer, verifier, window = channel
        messages = signed_requests(signer, "sender", 10)
        messages[0].timestamp = 100
        messages[3].signature = Signature("sender", "bogus-digest", "f" * 64)
        messages[9].signed = False
        reference = [
            index
            for index, message in enumerate(messages)
            if not message.verify(verifier, expected_signer="sender")
        ]
        assert window.verify_batch("sender", messages) == reference


class TestAcceptedCount:
    def test_a_rejected_message_does_not_count_as_verified(self, channel):
        signer, _, window = channel
        messages = signed_requests(signer, "sender", 2)
        messages[1].timestamp = 999
        assert window.verify("sender", messages[0])
        assert not window.verify("sender", messages[1])
        assert window.messages_verified == 1


class TestFirstSight:
    """A memo-cold signature, which is every one that crossed a real wire, costs one
    HMAC on first sight: the reference path's verdict, memoized for the next check."""

    @pytest.mark.parametrize("valid", [True, False], ids=["valid", "corrupted"])
    def test_one_hmac_then_the_memo(self, channel, valid):
        signer, verifier, window = channel
        (message,) = signed_requests(signer, "sender", 1)
        signed = message.signature
        tag = signed.tag if valid else "0" * 64
        reference = verifier.verify_digest(
            signed.payload_digest, Signature(signed.signer_id, signed.payload_digest, tag)
        )
        message.signature = Signature(signed.signer_id, signed.payload_digest, tag)
        assert window.verify("sender", message) is reference is valid
        assert window.fallback_verifications == 1
        assert list(message.signature._tag_ok_by_secret.values()) == [valid]
        assert window.verify("sender", message) is valid
        assert window.fallback_verifications == 1


class _PerMessageVerifier:
    """Reference front: every check goes through the per-message path."""

    def __init__(self, verifier):
        self._verifier = verifier

    def verify(self, signer_id, message):
        return message.verify(self._verifier, expected_signer=signer_id)

    def verify_batch(self, signer_id, messages):
        return [
            index
            for index, message in enumerate(messages)
            if not message.verify(self._verifier, expected_signer=signer_id)
        ]


def _invalid_signature_records(deployment):
    return sorted(
        (replica.node_id, record.suspect, record.detail)
        for replica in deployment.replicas.values()
        for record in replica.evidence.records
        if record.kind is EvidenceKind.INVALID_SIGNATURE
    )


def _run_corrupt_scenario(mode, per_message: bool):
    deployment = build(mode, num_clients=2)
    if per_message:
        for replica in deployment.replicas.values():
            replica.window_verifier = _PerMessageVerifier(replica.verifier)
        for client in deployment.clients:
            client._window_verifier = _PerMessageVerifier(client.verifier)
    config = deployment.group().config
    make_byzantine(deployment.group(), config.public_replicas[0], "corrupt")
    result = run_deployment(deployment, duration=0.4, warmup=0.0)
    return deployment, result


class TestEvidenceParity:
    """Windowed verification must emit *exactly* the reference evidence."""

    @pytest.mark.parametrize("mode", [Mode.DOG, Mode.PEACOCK])
    def test_invalid_signature_records_are_identical(self, mode):
        windowed_deployment, windowed_result = _run_corrupt_scenario(mode, False)
        reference_deployment, reference_result = _run_corrupt_scenario(mode, True)
        windowed = _invalid_signature_records(windowed_deployment)
        reference = _invalid_signature_records(reference_deployment)
        assert windowed == reference
        assert windowed, "the corrupt replica must actually be flagged"
        assert windowed_result.completed == reference_result.completed

    def test_honest_runs_emit_no_invalid_signature_evidence(self):
        deployment = build(Mode.DOG)
        run_deployment(deployment, duration=0.3, warmup=0.0)
        assert _invalid_signature_records(deployment) == []


class TestTwistsStayDetectedPostCodec:
    """Byzantine twists now decode-and-re-encode wire frames; every attack
    must still trip the same checkers it did pre-codec."""

    def test_corrupt_signatures_are_flagged_and_absorbed(self):
        deployment, result = _run_corrupt_scenario(Mode.DOG, False)
        flagged = _invalid_signature_records(deployment)
        config = deployment.group().config
        assert any(suspect == config.public_replicas[0] for _, suspect, _ in flagged)
        assert result.completed > 0
        assert_ledgers_consistent(
            [r.ledger for r in deployment.correct_replicas()]
        )

    @pytest.mark.parametrize("mode", [Mode.DOG, Mode.PEACOCK])
    def test_equivocation_never_splits_correct_ledgers(self, mode):
        deployment = build(mode, num_clients=2)
        config = deployment.group().config
        victim = (
            config.primary_of_view(0, mode)
            if mode is Mode.PEACOCK
            else config.public_replicas[0]
        )
        make_byzantine(deployment.group(), victim, "equivocate")
        result = run_deployment(deployment, duration=0.5, warmup=0.0)
        assert result.completed > 0
        assert_ledgers_consistent(
            [r.ledger for r in deployment.correct_replicas()]
        )

    def test_lying_replica_never_fools_a_client(self):
        deployment = build(Mode.DOG, num_clients=2)
        config = deployment.group().config
        liar = config.public_replicas[0]
        make_byzantine(deployment.group(), liar, "lie")
        result = run_deployment(deployment, duration=0.5, warmup=0.0)
        assert result.completed > 0
        # Forged results are the liar's own signed replies; the reply
        # quorum (2m+1 matching result digests) can never be met by them.
        for client in deployment.clients:
            for record in client.completed:
                assert record.completed_at >= record.sent_at
        assert_ledgers_consistent(
            [r.ledger for r in deployment.correct_replicas()]
        )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
