"""Deterministic application state machines.

Per Section 5 of the paper, operations must be *atomic* and *deterministic*:
the same operation applied to the same state always yields the same result,
and every replica starts from the same initial state.  Three machines are
provided:

* :class:`KeyValueStore` — the application used by the examples (put / get /
  delete / scan), representative of the replicated storage layer a system
  such as Spanner would place on top of the protocol.
* :class:`Counter` — minimal machine used in unit tests.
* :class:`NullStateMachine` — executes nothing; used by the 0/0, 0/4, 4/0
  micro-benchmarks where only payload sizes matter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.crypto.digest import digest


class Operation:
    """A client-issued state machine operation.

    Attributes:
        kind: operation name understood by the target state machine.
        args: positional arguments.
        payload: opaque bytes-equivalent payload; only its size matters to
            the micro-benchmarks but it is carried through execution.

    A ``__slots__`` class, not a frozen dataclass (whose ``__init__`` sets
    each field through ``object.__setattr__``): a TCP receiver builds one per
    request it decodes.  ``==``, ``hash`` and ``repr`` are the dataclass's;
    operations are immutable by convention, as messages are.
    """

    __slots__ = ("kind", "args", "payload")

    def __init__(self, kind: str, args: Tuple[Any, ...] = (), payload: str = "") -> None:
        self.kind = kind
        self.args = args
        self.payload = payload

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not Operation:
            return NotImplemented
        return (self.kind, self.args, self.payload) == (other.kind, other.args, other.payload)

    def __hash__(self) -> int:
        return hash((self.kind, self.args, self.payload))

    def __repr__(self) -> str:
        return f"Operation(kind={self.kind!r}, args={self.args!r}, payload={self.payload!r})"

    def to_wire(self) -> Dict[str, Any]:
        return {"kind": self.kind, "args": list(self.args), "payload_len": len(self.payload)}

    def wire_size(self) -> int:
        """Approximate serialized size in bytes."""
        size = 16 + len(self.payload)
        for arg in self.args:
            # Same value as len(str(arg)) without the str() round trip for
            # the overwhelmingly common string argument.
            size += len(arg) if type(arg) is str else len(str(arg))
        return size


# Execution results repeat heavily — every no-op of an x/y micro-benchmark
# returns the *same object* (see ``NullStateMachine``), and key-value reads
# repeat values — so result digests are memoized at two levels:
#
# * by object identity, but ONLY for results explicitly registered via
#   :func:`register_stable_result` — the StateMachine interface does not
#   promise immutable results, so pinning a digest to an arbitrary dict's
#   id would go stale if a state machine returned (and later mutated) an
#   internally held dict.  Registered entries hold a strong reference, so
#   an id can never be reused while cached.
# * by value, for everything else with hashable contents.  The type name
#   rides along in the key because ``True`` and ``1`` hash identically but
#   canonicalize differently.
#
# Both memos are bounded: once full, uncommon results just fall through to
# a fresh digest.
_RESULT_DIGEST_BY_ID: Dict[int, tuple] = {}
_RESULT_DIGEST_MEMO: Dict[tuple, str] = {}
_RESULT_DIGEST_MEMO_MAX = 4096


def register_stable_result(result: Any) -> str:
    """Pin a conventionally-immutable result object's digest by identity.

    Callers promise never to mutate ``result`` after registration (state
    machines that return one shared result object per apply, like
    :class:`NullStateMachine`).  Returns the digest.
    """
    digest_value = result_digest(result)
    if len(_RESULT_DIGEST_BY_ID) < _RESULT_DIGEST_MEMO_MAX:
        _RESULT_DIGEST_BY_ID[id(result)] = (result, digest_value)
    return digest_value


def result_digest(result: Any) -> str:
    """Digest of one execution result (what clients match replies on), memoized."""
    carried = getattr(result, "result_digest", None)
    if isinstance(carried, str):
        # An OpaqueResult (a decoded reply's placeholder) carries the
        # original result digest itself; hashing the placeholder would
        # diverge from the digest the frame was built over.
        return carried
    if isinstance(result, dict):
        by_id = _RESULT_DIGEST_BY_ID.get(id(result))
        if by_id is not None:
            return by_id[1]
        try:
            items = sorted(result.items())
        except TypeError:
            return digest(result)
        key_items = []
        for name, value in items:
            # Only flat scalar values are memo-keyable: inside a container,
            # equal-but-differently-canonicalized elements ((1,) vs (True,))
            # would collide.  Floats key by repr so 0.0 and -0.0 (equal,
            # same hash, different canonical JSON) stay distinct.  Anything
            # else skips the memo.
            value_type = type(value)
            if value_type is float:
                key_items.append((name, "float", repr(value)))
            elif value is None or value_type in (str, int, bool):
                key_items.append((name, value_type.__name__, value))
            else:
                return digest(result)
        key = tuple(key_items)
        cached = _RESULT_DIGEST_MEMO.get(key)
        if cached is None:
            cached = digest(result)
            if len(_RESULT_DIGEST_MEMO) < _RESULT_DIGEST_MEMO_MAX:
                _RESULT_DIGEST_MEMO[key] = cached
        return cached
    return digest(result)


class StateMachine:
    """Interface all replicated applications implement."""

    def apply(self, operation: Operation) -> Any:
        """Execute one operation and return its result.

        Must be deterministic: no randomness, no wall-clock reads.
        """
        raise NotImplementedError

    def snapshot(self) -> Any:
        """Return a serializable snapshot of the full state (for checkpoints)."""
        raise NotImplementedError

    def restore(self, snapshot: Any) -> None:
        """Replace the state with a previously taken snapshot."""
        raise NotImplementedError


class KeyValueStore(StateMachine):
    """A replicated key-value store supporting put/get/delete/scan."""

    def __init__(self) -> None:
        self._data: Dict[str, Any] = {}
        self.operations_applied = 0

    def apply(self, operation: Operation) -> Any:
        self.operations_applied += 1
        kind = operation.kind
        if kind == "put":
            key, value = operation.args
            self._data[key] = value
            return {"ok": True}
        if kind == "get":
            (key,) = operation.args
            return {"ok": True, "value": self._data.get(key)}
        if kind == "delete":
            (key,) = operation.args
            existed = key in self._data
            self._data.pop(key, None)
            return {"ok": True, "existed": existed}
        if kind == "scan":
            prefix = operation.args[0] if operation.args else ""
            matches = sorted(k for k in self._data if k.startswith(prefix))
            return {"ok": True, "keys": matches}
        if kind == "noop":
            return {"ok": True}
        raise ValueError(f"unsupported key-value operation: {kind!r}")

    def get(self, key: str) -> Optional[Any]:
        """Local (non-replicated) read used by tests and examples."""
        return self._data.get(key)

    def __len__(self) -> int:
        return len(self._data)

    def snapshot(self) -> Dict[str, Any]:
        return dict(self._data)

    def restore(self, snapshot: Dict[str, Any]) -> None:
        self._data = dict(snapshot)


#: Transaction decision outcomes recorded by the participant state machine.
TXN_COMMIT = "commit"
TXN_ABORT = "abort"


class TransactionalKeyValueStore(KeyValueStore):
    """A key-value store that can participate in cross-shard transactions.

    On top of the plain put/get/delete/scan operations it understands the
    records of the deterministic two-phase commit used by the sharded
    deployment.  All three records are ordinary client operations, so each
    shard *orders them through its own consensus instance* — atomicity
    across shards therefore inherits each shard's agreement guarantees:

    * ``txn`` — an atomic multi-write confined to this shard (the
      single-shard fast path: no coordination needed, the writes apply in
      one deterministic step);
    * ``txn_prepare(txn_id, writes)`` — stage the transaction's writes for
      this shard and vote.  The vote is *no* when a decision for the
      transaction is already recorded — the abort-before-prepare tombstone:
      a coordinator that timed out and aborted may have its abort ordered
      before a retransmitted prepare, and that late prepare must not
      resurrect the transaction;
    * ``txn_decide(txn_id, outcome)`` — record the coordinator's decision.
      ``commit`` applies the staged writes; ``abort`` discards them.  The
      first decision for a transaction wins; duplicates are reported as
      such and change nothing (re-proposals are additionally absorbed by
      the executor's reply cache).

    Staged writes and decisions are part of :meth:`snapshot`, so a replica
    that catches up via state transfer resumes with the same transaction
    state every other correct replica has.
    """

    def __init__(self) -> None:
        super().__init__()
        self._staged: Dict[str, Tuple[Tuple[Any, ...], ...]] = {}
        self.txn_decisions: Dict[str, str] = {}
        self.txns_committed = 0
        self.txns_aborted = 0

    def _apply_write(self, write: Tuple[Any, ...]) -> None:
        kind = write[0]
        if kind == "put":
            _, key, value = write
            self._data[key] = value
        elif kind == "delete":
            self._data.pop(write[1], None)
        else:
            raise ValueError(f"unsupported transactional write: {kind!r}")

    def apply(self, operation: Operation) -> Any:
        kind = operation.kind
        if kind == "txn":
            self.operations_applied += 1
            for write in operation.args:
                self._apply_write(tuple(write))
            return {"ok": True, "writes": len(operation.args)}
        if kind == "txn_prepare":
            self.operations_applied += 1
            txn_id, writes = operation.args
            if txn_id in self.txn_decisions:
                return {"ok": True, "txn": txn_id, "vote": "no"}
            self._staged[txn_id] = tuple(tuple(write) for write in writes)
            return {"ok": True, "txn": txn_id, "vote": "yes"}
        if kind == "txn_decide":
            self.operations_applied += 1
            txn_id, outcome = operation.args
            previous = self.txn_decisions.get(txn_id)
            if previous is not None:
                return {"ok": True, "txn": txn_id, "outcome": previous, "duplicate": True}
            if outcome not in (TXN_COMMIT, TXN_ABORT):
                raise ValueError(f"unsupported transaction outcome: {outcome!r}")
            self.txn_decisions[txn_id] = outcome
            staged = self._staged.pop(txn_id, None)
            if outcome == TXN_COMMIT:
                self.txns_committed += 1
                if staged is None:
                    # Should be unreachable under the coordinator protocol
                    # (commit is only decided after every participant voted
                    # yes, and the vote is ordered before the decision);
                    # reported rather than raised so the atomicity checker
                    # surfaces it as an invariant violation.
                    return {"ok": False, "txn": txn_id, "outcome": outcome,
                            "error": "commit-without-prepare"}
                for write in staged:
                    self._apply_write(write)
            else:
                self.txns_aborted += 1
            return {"ok": True, "txn": txn_id, "outcome": outcome}
        return super().apply(operation)

    def staged_transactions(self) -> List[str]:
        """Transaction ids prepared on this shard but not yet decided."""
        return sorted(self._staged)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "data": dict(self._data),
            "staged": {txn_id: list(map(list, writes)) for txn_id, writes in self._staged.items()},
            "decisions": dict(self.txn_decisions),
            "committed": self.txns_committed,
            "aborted": self.txns_aborted,
        }

    def restore(self, snapshot: Dict[str, Any]) -> None:
        self._data = dict(snapshot["data"])
        self._staged = {
            txn_id: tuple(tuple(write) for write in writes)
            for txn_id, writes in snapshot["staged"].items()
        }
        self.txn_decisions = dict(snapshot["decisions"])
        self.txns_committed = snapshot["committed"]
        self.txns_aborted = snapshot["aborted"]


class Counter(StateMachine):
    """A single replicated integer supporting add/read."""

    def __init__(self) -> None:
        self.value = 0

    def apply(self, operation: Operation) -> Any:
        if operation.kind == "add":
            (amount,) = operation.args
            self.value += amount
            return {"ok": True, "value": self.value}
        if operation.kind == "read":
            return {"ok": True, "value": self.value}
        if operation.kind == "noop":
            return {"ok": True}
        raise ValueError(f"unsupported counter operation: {operation.kind!r}")

    def snapshot(self) -> int:
        return self.value

    def restore(self, snapshot: int) -> None:
        self.value = snapshot


@dataclass
class NullStateMachine(StateMachine):
    """Executes nothing; optionally echoes a fixed-size reply payload.

    The reply payload size models the paper's x/y micro-benchmarks where the
    reply carries y KB.  Every execution returns the *same* (conventionally
    immutable) result object: results are already shared through the
    executor's reply cache, and a single instance lets the reply-digest memo
    hit by identity instead of re-hashing an identical dict per reply.
    """

    reply_payload_size: int = 0
    operations_applied: int = field(default=0)

    def __post_init__(self) -> None:
        self._reply = {"ok": True, "payload": "x" * self.reply_payload_size}
        # Explicit opt-in to identity-keyed digest memoization: this object
        # is shared across every apply() and never mutated.
        register_stable_result(self._reply)

    def apply(self, operation: Operation) -> Any:
        self.operations_applied += 1
        return self._reply

    def snapshot(self) -> int:
        return self.operations_applied

    def restore(self, snapshot: int) -> None:
        self.operations_applied = snapshot
