"""Unit tests for the crypto substrate: digests, signatures, keys, costs."""

import hashlib
import hmac
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from repro.crypto import (
    CryptoCostModel,
    InvalidSignatureError,
    KeyStore,
    Signature,
    Signer,
    Verifier,
    digest,
    digest_bytes,
)
from repro.crypto import signatures
from repro.crypto.keys import key_schedule
from repro.crypto.signatures import WindowVerifier


class TestDigest:
    def test_digest_is_stable(self):
        assert digest({"a": 1}) == digest({"a": 1})

    def test_digest_key_order_independent(self):
        assert digest({"a": 1, "b": 2}) == digest({"b": 2, "a": 1})

    def test_digest_differs_for_different_content(self):
        assert digest({"a": 1}) != digest({"a": 2})

    def test_digest_of_string_and_bytes(self):
        assert digest("hello") == digest_bytes(b"hello")

    def test_digest_of_object_with_to_wire(self):
        class Msg:
            def to_wire(self):
                return {"x": 42}

        assert digest(Msg()) == digest({"x": 42})

    def test_digest_hex_length(self):
        assert len(digest("x")) == 64


class TestKeyStoreAndSignatures:
    def setup_method(self):
        self.keystore = KeyStore()
        for node in ("r0", "r1", "r2"):
            self.keystore.register(node)
        self.verifier = self.keystore.verifier()

    def test_sign_and_verify_roundtrip(self):
        signer = self.keystore.signer_for("r0")
        signature = signer.sign({"op": "put"})
        assert self.verifier.verify({"op": "put"}, signature)

    def test_verify_fails_for_tampered_message(self):
        signer = self.keystore.signer_for("r0")
        signature = signer.sign({"op": "put"})
        assert not self.verifier.verify({"op": "delete"}, signature)

    def test_forged_signature_rejected(self):
        attacker = self.keystore.signer_for("r2")
        forged = attacker.forge({"op": "put"}, claimed_signer="r0")
        assert not self.verifier.verify({"op": "put"}, forged)

    def test_unknown_signer_rejected(self):
        signer = self.keystore.signer_for("r0")
        signature = signer.sign("msg")
        stranger_verifier = KeyStore(seed="other").verifier()
        assert not stranger_verifier.verify("msg", signature)

    def test_require_valid_raises(self):
        attacker = self.keystore.signer_for("r2")
        forged = attacker.forge("msg", claimed_signer="r0")
        with pytest.raises(InvalidSignatureError):
            self.verifier.require_valid("msg", forged)

    def test_register_is_idempotent(self):
        self.keystore.register("r0")
        assert self.keystore.knows("r0")

    def test_signer_for_unknown_node_raises(self):
        with pytest.raises(KeyError):
            self.keystore.signer_for("nope")

    def test_node_ids_sorted(self):
        assert self.keystore.node_ids == ["r0", "r1", "r2"]

    def test_deterministic_keys_across_stores_with_same_seed(self):
        other = KeyStore()
        other.register("r0")
        signature = self.keystore.signer_for("r0").sign("hello")
        assert other.verifier().verify("hello", signature)

    def test_different_seeds_give_different_keys(self):
        other = KeyStore(seed="different")
        other.register("r0")
        signature = self.keystore.signer_for("r0").sign("hello")
        assert not other.verifier().verify("hello", signature)


#: Either side of every branch of the key schedule: empty, short, SHA-256's
#: 32, one under, at and one over the 64-byte block (hashed first), and long.
KEY_LENGTHS = (0, 1, 32, 63, 64, 65, 200)
secrets_ = st.sampled_from(KEY_LENGTHS).flatmap(
    lambda size: st.binary(min_size=size, max_size=size)
)
#: A tag covers the digest string's UTF-8 bytes, so non-ASCII text is drawn too.
digests = st.text()


def reference_tag(secret: bytes, payload_digest: str) -> str:
    return hmac.digest(secret, payload_digest.encode("utf-8"), hashlib.sha256).hex()


class _Signed:
    """What a window verifier reads of a signed message: its signature and content digest."""

    signed = True

    def __init__(self, content_digest: str, signature: Signature) -> None:
        self._content_digest = content_digest
        self.signature = signature


class TestTagsAreTheHmacModulesTags:
    """A tag from the precomputed key schedule is ``hmac.digest``'s, byte for byte:
    the wire golden's signatures, and every verdict, depend on it."""

    @given(secret=secrets_, payload_digest=digests)
    def test_a_signature_is_hmac_sha256_of_its_digest(self, secret, payload_digest):
        signer = Signer("signer", key_schedule(secret))
        assert signer.sign_digest(payload_digest).tag == reference_tag(secret, payload_digest)

    @given(
        secret=secrets_,
        other=secrets_,
        payload_digest=digests.filter(bool),  # a message's content digest is never empty
        flip=st.integers(0, 63),
    )
    def test_both_fronts_give_the_reference_verdict(self, secret, other, payload_digest, flip):
        verifier = Verifier({"signer": key_schedule(secret), "other": key_schedule(other)})
        valid = reference_tag(secret, payload_digest)
        corrupted = valid[:flip] + ("1" if valid[flip] == "0" else "0") + valid[flip + 1 :]
        wrong_signer = reference_tag(other, payload_digest)
        for tag in (valid, corrupted, wrong_signer):
            expected = hmac.compare_digest(tag, valid)
            # A fresh signature for each front: no memo carries a verdict over.
            signature = Signature("signer", payload_digest, tag)
            assert verifier.verify_digest(payload_digest, signature) is expected
            message = _Signed(payload_digest, Signature("signer", payload_digest, tag))
            assert WindowVerifier(verifier).verify("signer", message) is expected

    @given(secret=secrets_, payload_digests=st.lists(digests.filter(bool), min_size=1, max_size=4))
    def test_the_group_mac_is_hmac_over_the_joined_digests(self, secret, payload_digests):
        schedule = key_schedule(secret)
        signer = Signer("signer", schedule)
        messages = [_Signed(each, signer.sign_digest(each)) for each in payload_digests]
        window = WindowVerifier(Verifier({"signer": schedule}))
        tags = []
        compute_tag = signatures._compute_tag

        def recorded(key, payload_digest):
            tags.append((payload_digest, compute_tag(key, payload_digest)))
            return tags[-1][1]

        with mock.patch.object(signatures, "_compute_tag", recorded):
            assert window.verify_batch("signer", messages) == []
        joined = "".join(payload_digests)
        assert tags == [(joined, reference_tag(secret, joined))] * 2
        assert window.fallback_verifications == 0


class TestCryptoCostModel:
    def test_digest_cost_grows_with_size(self):
        costs = CryptoCostModel()
        assert costs.digest_cost(4096) > costs.digest_cost(0)

    def test_digest_cost_negative_size_rejected(self):
        with pytest.raises(ValueError):
            CryptoCostModel().digest_cost(-1)

    def test_scaled_multiplies_all_costs(self):
        costs = CryptoCostModel()
        doubled = costs.scaled(2.0)
        assert doubled.sign_cost == pytest.approx(2 * costs.sign_cost)
        assert doubled.verify_cost == pytest.approx(2 * costs.verify_cost)
        assert doubled.mac_cost == pytest.approx(2 * costs.mac_cost)

    def test_scaled_negative_rejected(self):
        with pytest.raises(ValueError):
            CryptoCostModel().scaled(-1.0)

    def test_sign_more_expensive_than_mac(self):
        costs = CryptoCostModel()
        assert costs.sign_cost > costs.mac_cost
        assert costs.verify_cost > costs.mac_cost
