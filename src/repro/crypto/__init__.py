"""Cryptographic substrate for the replication protocols.

SeeMoRe (like PBFT) relies on two primitives:

* **message digests** — collision-resistant hashes that protect message
  integrity (Section 3.1 of the paper);
* **public-key style signatures** — a Byzantine replica cannot produce a
  valid signature of a correct replica.

This package implements both with standard-library primitives (SHA-256 and
HMAC over per-node secrets held by a trusted :class:`KeyStore`), plus a
*cost model* that charges simulated CPU time for each operation so that the
performance impact of authentication is visible in the benchmarks, exactly
as it is on the paper's EC2 testbed.

On the TCP backends the HMACs are real work, 5 to 58 of them per request.
The keystore keeps each secret as its HMAC key schedule (the precomputed
inner and outer SHA-256 states, RFC 2104 section 4), so signing and
verifying pay no key setup per tag.
"""

from repro.crypto.digest import digest, digest_bytes, digest_of
from repro.crypto.keys import KeyStore
from repro.crypto.signatures import (
    InvalidSignatureError,
    Signature,
    Signer,
    Verifier,
)
from repro.crypto.costs import CryptoCostModel

__all__ = [
    "digest",
    "digest_bytes",
    "digest_of",
    "KeyStore",
    "Signature",
    "Signer",
    "Verifier",
    "InvalidSignatureError",
    "CryptoCostModel",
]
