"""Key management for the simulated deployment.

In a real deployment every machine holds a private key and knows every other
machine's public key (Section 3.1).  In the simulation the :class:`KeyStore`
plays the role of that PKI: it generates a per-node secret, keeps it as the
secret's HMAC key schedule (:func:`key_schedule`), and hands each
node a :class:`~repro.crypto.signatures.Signer` that can only sign with that
node's own secret, and a :class:`~repro.crypto.signatures.Verifier` that can
check everyone's signatures.

A Byzantine node holds only its own signer; it cannot obtain another node's
secret, so it cannot forge signatures -- matching the paper's standard
cryptographic assumptions.
"""

from __future__ import annotations

import hashlib
from typing import Dict

from repro.crypto.signatures import KeySchedule, Signer, Verifier

#: ``bytes.translate`` tables that XOR every byte with HMAC's ipad and opad.
_IPAD = bytes(byte ^ 0x36 for byte in range(256))
_OPAD = bytes(byte ^ 0x5C for byte in range(256))
_BLOCK_SIZE = 64  # SHA-256's


def key_schedule(secret: bytes) -> KeySchedule:
    """HMAC-SHA256's inner and outer hash states for ``secret`` (RFC 2104).

    As :mod:`hmac` does per call, a secret longer than a block is hashed
    first, and the key is zero-padded to the block and XORed with ipad and
    with opad; here that happens once per key.
    """
    if len(secret) > _BLOCK_SIZE:
        secret = hashlib.sha256(secret).digest()
    block = secret.ljust(_BLOCK_SIZE, b"\0")
    return hashlib.sha256(block.translate(_IPAD)), hashlib.sha256(block.translate(_OPAD))


class KeyStore:
    """Deterministic per-node key material and signer/verifier factory."""

    def __init__(self, seed: str = "seemore-keystore") -> None:
        self._seed = seed
        self._secrets: Dict[str, KeySchedule] = {}

    def register(self, node_id: str) -> None:
        """Create key material for ``node_id`` (idempotent)."""
        if node_id in self._secrets:
            return
        material = hashlib.sha256(f"{self._seed}:{node_id}".encode("utf-8")).digest()
        self._secrets[node_id] = key_schedule(material)

    def knows(self, node_id: str) -> bool:
        return node_id in self._secrets

    @property
    def node_ids(self) -> list:
        return sorted(self._secrets)

    def signer_for(self, node_id: str) -> Signer:
        """Return the signer holding ``node_id``'s private key."""
        if node_id not in self._secrets:
            raise KeyError(f"unknown node: {node_id!r}; call register() first")
        return Signer(node_id, self._secrets[node_id])

    def verifier(self) -> Verifier:
        """Return a verifier that knows every registered node's public key.

        The verifier shares the keystore's key table, so nodes registered
        later (e.g. clients spawned after the replicas) are verifiable too --
        mirroring a PKI where every machine can look up any public key.
        """
        return Verifier(self._secrets)
