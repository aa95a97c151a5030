"""Simulated public-key signatures.

Signatures are HMAC-SHA256 tags computed with a per-node secret that only
the :class:`~repro.crypto.keys.KeyStore` and the owning node's
:class:`Signer` hold.  Both hold it as its HMAC key schedule, derived once
when the key is registered (RFC 2104, section 4): so a tag costs two
state copies and two short hashes, and no key setup.  Verification
recomputes the tag from the claimed signer's schedule, so a node that does
not hold another node's secret cannot produce a tag that verifies -- the
forgery-resistance property the paper assumes.

The indirection through :class:`Signature` (rather than bare strings) lets
Byzantine attack strategies construct deliberately *invalid* signatures and
lets correct replicas detect and discard them.

Two verification fronts are provided:

* :class:`Verifier` — the per-message reference path (recompute-or-memo one
  HMAC per signature);
* :class:`WindowVerifier` — the batch-amortized path replicas and clients
  use on the hot path: structural checks run inline, groups of same-sender
  messages are checked with a single group MAC when every signature's memo
  is warm, and *any* anomaly falls back to per-message verification so a
  single tampered message is isolated with exactly the verdicts (and
  evidence) the reference path would produce.
"""

from __future__ import annotations

import hmac
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.crypto.digest import digest_of


#: One key's precomputed HMAC-SHA256 states, ``(inner, outer)``; see
#: :func:`repro.crypto.keys.key_schedule`.  Never updated, only copied.
KeySchedule = Tuple[Any, Any]


class InvalidSignatureError(Exception):
    """Raised when strict verification is requested and the tag is wrong."""


class Signature:
    """A signature tag over a message digest, claiming a particular signer.

    A plain ``__slots__`` class rather than a dataclass: one is created per
    signed send, and the slot layout also gives the per-secret verification
    memo (``_tag_ok_by_secret``) a fixed home instead of a dict probe.
    Equality and hashing cover the three public fields, matching the frozen
    dataclass this replaced.
    """

    __slots__ = ("signer_id", "payload_digest", "tag", "_tag_ok_by_secret")

    def __init__(self, signer_id: str, payload_digest: str, tag: str) -> None:
        self.signer_id = signer_id
        self.payload_digest = payload_digest
        self.tag = tag
        self._tag_ok_by_secret: Optional[Dict[KeySchedule, bool]] = None

    def to_wire(self) -> Dict[str, str]:
        """Stable representation used when a signature is itself hashed."""
        return {
            "signer_id": self.signer_id,
            "payload_digest": self.payload_digest,
            "tag": self.tag,
        }

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not Signature:
            return NotImplemented
        return (
            self.signer_id == other.signer_id
            and self.payload_digest == other.payload_digest
            and self.tag == other.tag
        )

    def __hash__(self) -> int:
        return hash((self.signer_id, self.payload_digest, self.tag))

    def __repr__(self) -> str:
        return (
            f"Signature(signer_id={self.signer_id!r}, "
            f"payload_digest={self.payload_digest!r}, tag={self.tag!r})"
        )


def _compute_tag(secret: KeySchedule, payload_digest: str) -> str:
    """``hmac.digest(key, payload_digest, sha256).hex()``, from the key's schedule."""
    inner_state, outer_state = secret
    inner = inner_state.copy()
    inner.update(payload_digest.encode("utf-8"))
    outer = outer_state.copy()
    outer.update(inner.digest())
    return outer.hexdigest()


class Signer:
    """Holds one node's private key and produces signatures with it."""

    def __init__(self, node_id: str, secret: KeySchedule) -> None:
        self._node_id = node_id
        self._secret = secret

    @property
    def node_id(self) -> str:
        return self._node_id

    def sign(self, message: Any) -> Signature:
        """Sign an arbitrary message value (hashed canonically first).

        Protocol messages reuse their content-addressed digest cache, so a
        message is canonicalized at most once across sign and every verify.
        """
        return self.sign_digest(digest_of(message))

    def sign_digest(self, payload_digest: str) -> Signature:
        """Sign an already-computed canonical content digest.

        The fresh signature is born with a warm verification memo for the
        signing secret: ``verify_digest`` would recompute exactly the HMAC
        produced here and compare it to itself, so the ``True`` entry is
        correct by construction.  Forged or corrupted signatures are built
        directly (never through here) and always pay the real HMAC check.
        """
        secret = self._secret
        signature = Signature(
            signer_id=self._node_id,
            payload_digest=payload_digest,
            tag=_compute_tag(secret, payload_digest),
        )
        signature._tag_ok_by_secret = {secret: True}
        return signature

    def forge(self, message: Any, claimed_signer: str) -> Signature:
        """Produce a *bogus* signature claiming to be from ``claimed_signer``.

        Used only by Byzantine attack strategies.  The tag is computed with
        this node's own secret, so any correct verifier rejects it.
        """
        payload_digest = digest_of(message)
        return Signature(
            signer_id=claimed_signer,
            payload_digest=payload_digest,
            tag=_compute_tag(self._secret, "forged:" + payload_digest),
        )


class Verifier:
    """Verifies signatures from any registered node."""

    def __init__(self, secrets: Dict[str, KeySchedule]) -> None:
        self._secrets = secrets

    def verify(self, message: Any, signature: Signature) -> bool:
        """Return ``True`` iff ``signature`` is a valid tag by its claimed signer."""
        return self.verify_digest(digest_of(message), signature)

    def verify_digest(self, payload_digest: str, signature: Signature) -> bool:
        """Verify a signature against an already-computed content digest.

        The HMAC check is memoized on the (immutable) signature object,
        keyed by the claimed signer's key schedule (one object per key and
        keystore): a multicast message carries one ``Signature`` that every
        receiver re-verifies, and the tag comparison is a pure function of
        ``(secret, payload_digest, tag)`` — all frozen — so recomputing it
        per receiver is pure waste.  The content-vs-digest comparison above
        the cache still runs per call, so a mismatched message is always
        rejected.
        """
        secret = self._secrets.get(signature.signer_id)
        if secret is None:
            return False
        if payload_digest != signature.payload_digest:
            return False
        cache = signature._tag_ok_by_secret
        if cache is None:
            cache = signature._tag_ok_by_secret = {}
        ok = cache.get(secret)
        if ok is None:
            expected = _compute_tag(secret, payload_digest)
            ok = hmac.compare_digest(expected, signature.tag)
            cache[secret] = ok
        return ok

    def require_valid(self, message: Any, signature: Signature) -> None:
        """Raise :class:`InvalidSignatureError` unless the signature verifies."""
        if not self.verify(message, signature):
            raise InvalidSignatureError(
                f"invalid signature claimed by {signature.signer_id!r}"
            )


class WindowVerifier:
    """Memo-amortized verification, per message and per same-sender group.

    Each HMAC tag is an independent claim, so no grouping can *replace*
    per-signature checking soundly; what this class amortizes is everything
    around it.  :meth:`verify` is the flattened per-message fast path: all
    structural checks (signer identity, digest-vs-content match) run
    inline and the real HMAC is paid at most once per signature via the
    signature's memo, which a first sight fills itself.

    :meth:`verify_batch` checks a same-sender group with a single group
    MAC over claimed-vs-observed digests when every signature's memo is
    warm.  Any anomaly — memo-cold signature, signer mismatch, group MAC
    mismatch — triggers the fallback: each message is re-verified
    individually through the reference :class:`Verifier` path, so exactly
    the tampered messages are identified and the caller can emit the same
    per-message evidence the reference path would.
    """

    def __init__(self, verifier: Verifier) -> None:
        self._verifier = verifier
        self._secrets = verifier._secrets
        self.messages_verified = 0
        self.fallback_verifications = 0

    def verify(self, signer_id: str, message: Any) -> bool:
        """Amortized check of one message claimed to come from ``signer_id``.

        Returns exactly the verdict of
        ``message.verify(verifier, expected_signer=signer_id)``.
        """
        if not message.signed:
            return True
        signature = message.signature
        if signature is None or signature.signer_id != signer_id:
            return False
        secret = self._secrets.get(signer_id)
        if secret is None:
            return False
        content_digest = message.__dict__.get("_content_digest") or digest_of(message)
        if content_digest != signature.payload_digest:
            return False
        cache = signature._tag_ok_by_secret
        ok = cache.get(secret) if cache is not None else None
        if ok is None:
            # Memo-cold tag (first sight of a foreign or corrupted
            # signature): the checks above are the reference path's, so
            # only its HMAC is left to pay, once, into the same memo.
            self.fallback_verifications += 1
            ok = hmac.compare_digest(_compute_tag(secret, content_digest), signature.tag)
            if cache is None:
                signature._tag_ok_by_secret = {secret: ok}
            else:
                cache[secret] = ok
        if not ok:
            return False
        self.messages_verified += 1
        return True

    def verify_batch(self, signer_id: str, messages: Iterable[Any]) -> List[int]:
        """Verify a same-sender group; return the indices of invalid messages.

        An empty list means every message verified.  The fast path costs
        two HMACs for the whole group (claimed digests vs observed content
        digests); the fallback isolates exactly the tampered indices.
        """
        messages = list(messages)
        secret = self._secrets.get(signer_id)
        group_ok = secret is not None
        observed: List[str] = []
        claimed: List[str] = []
        if group_ok:
            for message in messages:
                if not message.signed:
                    continue
                signature = message.signature
                if signature is None or signature.signer_id != signer_id:
                    group_ok = False
                    break
                cache = signature._tag_ok_by_secret
                if cache is None or cache.get(secret) is not True:
                    group_ok = False
                    break
                claimed.append(signature.payload_digest)
                observed.append(
                    message.__dict__.get("_content_digest") or digest_of(message)
                )
        if group_ok and claimed:
            group_ok = hmac.compare_digest(
                _compute_tag(secret, "".join(claimed)), _compute_tag(secret, "".join(observed))
            )
        if group_ok:
            self.messages_verified += len(observed)
            return []
        # Fallback: per-message isolation through the reference path.
        invalid = []
        for index, message in enumerate(messages):
            self.fallback_verifications += 1
            if not message.verify(self._verifier, expected_signer=signer_id):
                invalid.append(index)
        return invalid
