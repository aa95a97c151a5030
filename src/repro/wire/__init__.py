"""Compact binary wire codec for every protocol message type.

``primitives`` is a leaf module (tags, pack helpers, the pinned hot
encoders, the ``read_x(buf, off, end)`` readers); ``codec`` holds the field
kinds, the derivation every message class is generated from, and the tag
registry behind ``decode``.
Neither imports a message class: the classes register themselves.
"""

from repro.wire.codec import OpaqueResult, decode, encode  # noqa: F401
from repro.wire.primitives import (  # noqa: F401
    TAG_ACCEPT,
    TAG_BATCH,
    TAG_CHECKPOINT,
    TAG_COMMIT,
    TAG_INFORM,
    TAG_PREPARE,
    TAG_PREPREPARE,
    TAG_PROXY_PREPARE,
    TAG_REPLY,
    TAG_REQUEST,
    WireDecodeError,
)

__all__ = [
    "WireDecodeError",
    "OpaqueResult",
    "decode",
    "encode",
    "TAG_REQUEST",
    "TAG_BATCH",
    "TAG_REPLY",
    "TAG_PREPARE",
    "TAG_ACCEPT",
    "TAG_COMMIT",
    "TAG_PREPREPARE",
    "TAG_PROXY_PREPARE",
    "TAG_INFORM",
    "TAG_CHECKPOINT",
]
