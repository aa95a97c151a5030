"""Collision-resistant message digests.

The protocols never compare full request payloads; they compare digests
(``D(µ)`` in the paper's notation): SHA-256 over a protocol message's
binary wire frame, or over a canonical JSON serialization of a plain value.

Recomputing a frame per replica per hop dominated the simulator's CPU
profile, so protocol messages carry a *content-addressed digest cache*:
:func:`digest_of` hashes an object's frozen wire slice exactly once per
object lifetime and stores the digest on the object.  ``copy.copy`` of a
protocol message deliberately drops the cache (see
``ProtocolMessage.__copy__``), so Byzantine twists that copy and mutate a
message can never inherit a stale digest.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

#: Attribute under which :func:`digest_of` caches a message's content digest.
DIGEST_CACHE_ATTR = "_content_digest"
#: Attribute under which ``ProtocolMessage.cached_wire_size`` caches the
#: serialized size estimate (shared with the net layer's fast probe).
WIRE_SIZE_CACHE_ATTR = "_wire_size"
#: Guard flag set alongside any cached wire form; lets the message mixin's
#: ``__setattr__`` test "is there anything to invalidate?" with one probe.
HAS_CACHE_FLAG = "_has_wire_caches"


def _canonical_bytes(value: Any) -> bytes:
    """Serialize ``value`` to canonical bytes for hashing.

    Uses JSON with sorted keys so that logically equal dicts hash equally
    regardless of insertion order.  Raw ``bytes`` are hashed as-is.
    """
    if isinstance(value, bytes):
        return value
    if isinstance(value, str):
        return value.encode("utf-8")
    return json.dumps(value, sort_keys=True, default=_fallback_encoder).encode("utf-8")


def _fallback_encoder(value: Any) -> Any:
    """Encode non-JSON-native objects by their stable repr hook."""
    to_wire = getattr(value, "to_wire", None)
    if callable(to_wire):
        return to_wire()
    return repr(value)


def digest_bytes(data: bytes) -> str:
    """Return the hex SHA-256 digest of raw bytes."""
    return hashlib.sha256(data).hexdigest()


def digest(value: Any) -> str:
    """Return the hex SHA-256 digest of an arbitrary message value.

    >>> digest({"op": "put", "key": "a"}) == digest({"key": "a", "op": "put"})
    True
    """
    return digest_bytes(_canonical_bytes(value))


def digest_of(message: Any) -> str:
    """Content-addressed digest of a message, encoded at most once.

    For protocol messages (anything exposing ``wire_slice()``) the digest
    covers the binary wire frame and is cached on the object, so the 3f+1
    replicas of a simulated deployment — which all receive the same Python
    object — encode and hash it exactly once in total, and signing and
    transmission share one serialization.  Plain values (dicts, strings,
    ...) have no stable identity to hang a cache off and fall back to
    :func:`digest`.

    The cache lives in the instance ``__dict__`` and is **not** inherited by
    ``copy.copy`` of a protocol message; mutate-after-copy attack helpers
    therefore always recompute, which the Byzantine regression tests pin.
    """
    # Cache probe first: it hits for every message past its first hop.
    try:
        instance_dict = message.__dict__
    except AttributeError:
        return digest(message)
    cached = instance_dict.get(DIGEST_CACHE_ATTR)
    if cached is None:
        wire_slice = getattr(message, "wire_slice", None)
        if wire_slice is None:
            return digest(message)
        cached = instance_dict[DIGEST_CACHE_ATTR] = hashlib.sha256(wire_slice()).hexdigest()
        instance_dict[HAS_CACHE_FLAG] = True
    return cached
