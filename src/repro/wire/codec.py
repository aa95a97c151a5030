"""One declaration per message: field kinds, the derivation, and the registry.

A message class states its wire tag, an ordered tuple of typed
:class:`Field` s, its modeled fixed size, and (for the ten hot types) which
pinned :mod:`repro.wire.primitives` encoder builds its frame.
:func:`derive` — called once per class by ``ProtocolMessage`` — generates
from that, the way :mod:`dataclasses` builds ``__init__``:

* the ``__dict__``-populating constructor, ``__repr__`` and ``__eq__``;
* ``signing_bytes()``, the binary frame that is signed, digested and sent:
  ``tag u8 | every i64 field in one struct | the other signed fields in
  declaration order`` (``FRAME`` overrides the order);
* ``from_buffer(buf, off, end)``, its inverse over the window ``[off, end)`` of
  a buffer, registered by tag for :func:`decode`: one bounds check and one
  ``unpack_from`` for the head, then each other field's ``read`` template
  (``str`` and ``dig`` read inline, every other kind calls its
  ``read_x(buf, off, end)``); the window must be consumed exactly, and the
  message is built in one step — ``object.__new__`` and one fill of its
  ``__dict__`` with what ``__init__`` would set, after the same checks;
* ``signing_content()``, the JSON-shaped form the differential tests keep
  as their reference;
* ``wire_size()``, the simulator's modeled size;
* ``detached()`` / ``attach()``, the unsigned parts that travel beside the
  frame (piggybacked payloads, inner client signatures, snapshots);
  ``attach()`` refuses a part its slot's field does not declare.

Decoded messages carry no signature and no detached parts: those ride in
the transport envelope (:mod:`repro.runtime.aio`), never inside the frame.
"""

from __future__ import annotations

import inspect
import struct
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.wire import primitives
from repro.wire.primitives import (
    _U32,
    TAG_BATCH,
    TAG_REQUEST,
    WireDecodeError,
    pack_digest,
    read_digest,
    read_u32,
    truncated,
)

#: Wire tag -> message class, filled by :func:`derive`.
REGISTRY: Dict[int, type] = {}

_REQUIRED = object()


@dataclass(frozen=True)
class Kind:
    """How one kind of field is packed, read, sized and shown.

    Every attribute but ``label`` and ``names`` is a source template over
    ``{v}`` (the field's value expression) that :func:`derive` splices into
    the generated methods.  A kind with a ``head`` struct code is
    fixed-width and rides in the frame's leading struct; one with neither
    ``head`` nor ``read`` is unsigned and travels detached.
    """

    label: str  # the field's type in the README table
    head: str = ""
    pack: str = ""  # bytes expression, for frames assembled inline
    read: str = ""  # statements reading ``{v}`` at ``off`` in ``buf[:end]``, advancing ``off``
    arg: str = "{v}"  # argument(s) handed to a pinned ``ENCODER``
    json: str = "{v}"  # value in ``signing_content()``
    size: str = ""  # variable term of ``wire_size()``
    check: str = ""  # constructor validation statement
    detach: str = ""  # list expression of the unsigned parts
    attach: str = ""  # statement consuming ``next(items)``
    names: Optional[Mapping[str, Any]] = None  # extra names the templates use

    @property
    def signed(self) -> bool:
        return bool(self.head or self.read)


def payload_slot(item: Any) -> Any:
    """What a payload slot accepts: a request or a batch (by wire tag), or nothing.

    The parts beside a frame are unsigned and arrive from the network, so a
    slot takes only what its field declares; anything else is a ``ValueError``
    (the transport drops the envelope).
    """
    if item is not None and getattr(item, "TAG", None) not in (TAG_REQUEST, TAG_BATCH):
        raise ValueError(f"a payload slot holds a request or a batch, not {type(item).__name__}")
    return item


_PLAIN_TYPES = (type(None), bool, int, float, str, tuple, list, dict, bytes)


def value_slot(item: Any) -> Any:
    """What an attachment slot accepts: a plain value (:func:`primitives.pack_value`)."""
    if not isinstance(item, _PLAIN_TYPES):
        raise ValueError(f"an attachment slot holds a plain value, not {type(item).__name__}")
    return item


I64 = Kind("i64", head="q")
#: ``read_str`` inlined: the same checks and errors without a call per field.
STR = Kind(
    "str",
    pack="primitives.pack_str({v})",
    read="""start = off + 4
if start > end: raise truncated(4, off, end)
stop = start + u32_at(buf, off)[0]
if stop > end: raise truncated(stop - start, start, end)
try: {v} = buf[start:stop].decode("utf-8")
except UnicodeDecodeError as exc:
    raise WireDecodeError(f"garbled UTF-8 string field: {{exc}}") from None
off = stop""",
    names={"u32_at": _U32.unpack_from},
)
#: The packed branch of ``read_digest`` inlined; every other flag byte (the
#: spelled-out ``0x00`` form, a garbled flag, no byte at all) goes to
#: ``read_digest``, which holds the canonical checks.
DIGEST = Kind(
    "dig",
    pack="primitives.pack_digest({v})",
    read="""if off < end and buf[off] == 1:
    stop = off + 33
    if stop > end: raise truncated(32, off + 1, end)
    {v} = buf[off + 1 : stop].hex()
    off = stop
else: {v}, off = read_digest(buf, off, end)""",
    names={"read_digest": read_digest},
)
#: View-change entries: ``(sequence, view, digest)`` signed, each entry's
#: payload detached.
ENTRIES = Kind(
    "entry*",
    pack="pack_entries({v})",
    read="{v}, off = read_entries(buf, off, end)",
    json="[entry.to_wire() for entry in {v}]",
    size="sum(entry.wire_size() for entry in {v})",
    detach="[entry.request for entry in {v}]",
    attach="for entry in {v}: entry.request = payload_slot(next(items))",
)
#: The unsigned piggybacked slot payload (a Request, a Batch, or nothing).
PAYLOAD = Kind(
    "",
    size="({v}.cached_wire_size() if {v} is not None else 0)",
    detach="[{v}]",
    attach="{v} = payload_slot(next(items))",
)
#: An unsigned plain value (the state-transfer snapshot).
ATTACHMENT = Kind("", detach="[{v}]", attach="{v} = value_slot(next(items))")


class Field(NamedTuple):
    """One constructor argument of a message and how it travels."""

    name: str
    kind: Kind
    default: Any = _REQUIRED  # a value, or ``list`` / ``dict`` for a fresh container


@dataclass
class Entry:
    """A per-sequence entry carried inside view-change and new-view messages.

    ``request`` holds the slot's whole payload — a bare request or a batch —
    so a new view re-proposes uncommitted batches intact.
    """

    sequence: int
    view: int
    digest: str
    request: Optional[Any] = None

    def to_wire(self) -> Dict[str, Any]:
        return {"sequence": self.sequence, "view": self.view, "digest": self.digest}

    def wire_size(self) -> int:
        size = 56  # sequence, view and per-entry framing (24) plus the digest (32)
        if self.request is not None:
            size += self.request.cached_wire_size()
        return size


_ENTRY_HEAD = struct.Struct("<qq")


def pack_entries(entries: Sequence[Entry]) -> bytes:
    parts = [_U32.pack(len(entries))]
    for entry in entries:
        parts.append(_ENTRY_HEAD.pack(entry.sequence, entry.view))
        parts.append(pack_digest(entry.digest))
    return b"".join(parts)


def read_entries(buf: bytes, off: int, end: int) -> Tuple[List[Entry], int]:
    count, off = read_u32(buf, off, end)
    entries = []
    for _ in range(count):
        stop = off + _ENTRY_HEAD.size
        if stop > end:
            raise truncated(_ENTRY_HEAD.size, off, end)
        sequence, view = _ENTRY_HEAD.unpack_from(buf, off)
        digest, off = read_digest(buf, stop, end)
        entries.append(Entry(sequence, view, digest))
    return entries, off


@dataclass(unsafe_hash=True)  # hashable like the digest it stands for; plain (fast) init
class OpaqueResult:
    """Stand-in for a Reply result that only survives the wire as a digest.

    The protocol never ships full result values — clients vote on
    ``result_digest()`` — so a decoded Reply carries this placeholder whose
    ``to_wire`` form *is* the original digest.  Re-encoding a decoded Reply
    reproduces the source frame exactly.
    """

    result_digest: str

    def to_wire(self) -> str:
        return self.result_digest


# -- derivation ----------------------------------------------------------------


def _compile(name: str, params: str, body: Iterable[str], names: Dict[str, Any]) -> Callable:
    """Build one function whose free names resolve to ``names``, then this module."""
    lines = [f"def factory({', '.join(names)}):", f"    def {name}({params}):"]
    lines += [f"        {line}" for line in body]
    lines.append(f"    return {name}")
    scope: Dict[str, Any] = {}
    exec("\n".join(lines), globals(), scope)  # noqa: S102 - same technique as dataclasses
    return scope["factory"](**names)


def frame_fields(cls: type) -> List[Field]:
    """The signed fields in frame order: i64s first, then the rest as declared."""
    signed = [field for field in cls.FIELDS if field.kind.signed]
    if cls.FRAME is not None:
        by_name = {field.name: field for field in signed}
        return [by_name[name] for name in cls.FRAME]
    return [f for f in signed if f.kind.head] + [f for f in signed if not f.kind.head]


#: The kind of the ``signed`` flag and ``signature`` every message carries.
_META = Kind("")


def _entry(field: Field) -> Tuple[str, str, str]:
    """``field``'s ``__init__`` parameter, the value ``__init__`` stores, and the decoded one.

    A decoded message holds its frame fields as read and every other field
    at its default (``None`` where it has none).
    """
    name, default = field.name, field.default
    if default is _REQUIRED:
        param, value, fallback = name, name, "None"
    elif default in (list, dict):
        fallback = f"{default.__name__}()"
        param, value = f"{name}=None", f"{fallback} if {name} is None else {name}"
    else:
        param, value, fallback = f"{name}={default!r}", name, repr(default)
    return param, value, name if field.kind.signed else fallback


def derive(cls: type) -> None:
    """Generate ``cls``'s constructor, frame, decoder, JSON form and size; register it."""
    fields: Sequence[Field] = cls.FIELDS
    framed = frame_fields(cls)
    head = [field for field in framed if field.kind.head]
    tail = [field for field in framed if not field.kind.head]
    detached = [field for field in fields if field.kind.detach]
    names: Dict[str, Any] = {"cls": cls, "tag": cls.TAG, "new_object": object.__new__}
    names["head"] = struct.Struct("<B" + "".join(field.kind.head for field in head))
    for field in fields:
        names.update(field.kind.names or {})

    def spliced(template: str, field: Field) -> str:
        return template.format(v=f"self.{field.name}")

    # Constructor and decoder each fill the instance dict in one update, which
    # skips the per-field ``__setattr__`` cache guard (no caches exist yet),
    # from one entry list, so the two set the same keys to the same defaults.
    every = [*fields, Field("signed", _META, cls.SIGNED), Field("signature", _META, None)]
    params, stored, decoded = zip(*map(_entry, every))

    def fill(target: str, values: Sequence[str]) -> str:
        pairs = ", ".join(f"{field.name!r}: {value}" for field, value in zip(every, values))
        return f"{target}.__dict__.update({{{pairs}}})"

    checks = [field.kind.check.format(v=field.name) for field in fields if field.kind.check]
    body = checks + [fill("self", stored)]
    cls.__init__ = _compile("__init__", ", ".join(["self", *params]), body, names)

    shown = ", ".join(f"{field.name}={{self.{field.name}!r}}" for field in every)
    cls.__repr__ = _compile("__repr__", "self", [f"return f'{cls.__name__}({shown})'"], names)
    mine = "(" + ", ".join(f"self.{field.name}" for field in every) + ",)"
    body = [
        "if other.__class__ is not cls: return NotImplemented",
        f"return {mine} == {mine.replace('self.', 'other.')}",
    ]
    cls.__eq__ = _compile("__eq__", "self, other", body, names)
    cls.__hash__ = None

    # Frame: a pinned hot encoder where the class names one, else inline.
    if cls.ENCODER is not None:
        encoder = getattr(primitives, cls.ENCODER)
        args = ["tag"] if "tag" in inspect.signature(encoder).parameters else []
        args += [spliced(field.kind.arg, field) for field in framed]
        frame = f"primitives.{cls.ENCODER}({', '.join(args)})"
    else:
        packed = ["head.pack(" + ", ".join(["tag"] + [f"self.{f.name}" for f in head]) + ")"]
        packed += [spliced(field.kind.pack, field) for field in tail]
        frame = " + ".join(packed)
    cls.signing_bytes = _compile("signing_bytes", "self", [f"return {frame}"], names)

    size = names["head"].size
    reads = [
        f"if off + {size} > end: raise truncated({size}, off, end)",
        ", ".join(["_"] + [field.name for field in head]) + " = head.unpack_from(buf, off)",
        f"off += {size}",
    ]
    for field in tail:
        reads += field.kind.read.format(v=field.name).split("\n")
    reads.append("if off != end: raise WireDecodeError(f'{end - off} trailing bytes after frame')")
    reads += [f.kind.check.format(v=value) for f, value in zip(fields, decoded) if f.kind.check]
    body = reads + ["message = new_object(cls)", fill("message", decoded), "return message"]
    cls.from_buffer = staticmethod(_compile("from_buffer", "buf, off, end", body, names))

    content = [f"'type': {cls.__name__!r}"]
    content += [f"{field.name!r}: {spliced(field.kind.json, field)}" for field in framed]
    cls.signing_content = _compile(
        "signing_content", "self", ["return {" + ", ".join(content) + "}"], names
    )

    terms = [str(cls.SIZE)]
    if cls.SIZE_IF_SIGNED:
        terms.append(f"({cls.SIZE_IF_SIGNED} if self.signed else 0)")
    terms += [spliced(field.kind.size, field) for field in fields if field.kind.size]
    cls.wire_size = _compile("wire_size", "self", ["return " + " + ".join(terms)], names)

    parts = " + ".join(spliced(field.kind.detach, field) for field in detached) or "()"
    cls.detached = _compile("detached", "self", [f"return {parts}"], names)
    body = [spliced(field.kind.attach, field) for field in detached] or ["pass"]
    cls.attach = _compile("attach", "self, items", body, names)

    if REGISTRY.setdefault(cls.TAG, cls) is not cls:
        raise TypeError(
            f"wire tag 0x{cls.TAG:02x} of {cls.__name__} already belongs to "
            f"{REGISTRY[cls.TAG].__name__}"
        )


def format_table() -> str:
    """The README's "Binary wire format" table: one row per registered class."""
    rows = ["| tag | type | frame | parts beside the frame |", "|---|---|---|---|"]
    for tag, cls in sorted(REGISTRY.items()):
        layout = ["tag u8"] + [f"{f.name} {f.kind.label}" for f in frame_fields(cls)]
        beside = [f.name for f in cls.FIELDS if f.kind.detach]
        frame = " \\| ".join(layout)
        rows.append(f"| 0x{tag:02x} | `{cls.__name__}` | {frame} | {', '.join(beside)} |")
    return "\n".join(rows)


# -- codec ---------------------------------------------------------------------


def encode(message: Any) -> bytes:
    """The message's frozen wire frame (its cached wire slice)."""
    return message.wire_slice()


def decode(frame: Any) -> Any:
    """Rebuild a message from its binary frame.

    Raises WireDecodeError on truncation, unknown tags, garbled fields, or
    trailing bytes.
    """
    if not isinstance(frame, bytes):
        if not isinstance(frame, (bytearray, memoryview)):
            raise WireDecodeError(f"frame must be bytes, not {type(frame).__name__}")
        frame = bytes(frame)
    if not frame:
        raise WireDecodeError("empty frame")
    cls = REGISTRY.get(frame[0])
    if cls is None:
        raise WireDecodeError(f"unknown frame tag: 0x{frame[0]:02x}")
    return cls.from_buffer(frame, 0, len(frame))

