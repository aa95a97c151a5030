"""Ordered execution of committed requests.

A consensus protocol may commit sequence numbers out of order (e.g. a
replica learns about n=7 before n=6 arrives).  The executor buffers such
gaps and applies operations to the state machine strictly in order, which
is the property that guarantees all correct replicas converge.

It also implements the exactly-once client semantics from Section 5.1: the
client timestamp identifies a request, and re-executing a request that was
already executed returns the cached reply instead of mutating state twice.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.smr.state_machine import Operation, StateMachine

# One client request inside a committed slot: (client_id, timestamp, operation).
BatchEntry = Tuple[str, int, Operation]

# Sentinel distinguishing "no cached reply" from a cached ``None`` reply.
_MISSING = object()


class ExecutionResult(NamedTuple):
    """Outcome of executing one committed request.

    With batching several results share one ``sequence``: every request in a
    batch executes under its slot's sequence number, in batch order.  (A
    named tuple rather than a frozen dataclass: one is allocated per
    executed request, and tuple construction is several times cheaper than
    per-field ``object.__setattr__``.)
    """

    sequence: int
    client_id: str
    timestamp: int
    result: Any


class OrderedExecutor:
    """Applies committed operations in strict sequence-number order."""

    def __init__(self, state_machine: StateMachine) -> None:
        self._state_machine = state_machine
        self._pending: Dict[int, List[BatchEntry]] = {}
        self._next_sequence = 1
        self._reply_cache: Dict[Tuple[str, int], Any] = {}
        self._executed: List[ExecutionResult] = []
        self._checkpoint_interval: Optional[int] = None
        self._checkpoint_callback: Optional[Any] = None

    @property
    def state_machine(self) -> StateMachine:
        """The replicated application this executor drives.

        Exposed read-only for invariant checkers (e.g. the cross-shard
        atomicity checker inspects transaction decisions recorded by a
        :class:`~repro.smr.state_machine.TransactionalKeyValueStore`).
        """
        return self._state_machine

    def set_checkpoint_hook(self, interval: int, callback) -> None:
        """Invoke ``callback(sequence)`` the moment execution crosses each
        ``interval`` boundary.

        The hook fires *inside* the drain, so the state the callback observes
        is exactly the state after ``sequence`` — even when a single commit
        fills a gap and drains several buffered sequences at once.  Replicas
        use this to produce checkpoint digests that match across replicas
        regardless of commit arrival order.
        """
        if interval < 1:
            raise ValueError(f"checkpoint interval must be >= 1, got {interval}")
        self._checkpoint_interval = interval
        self._checkpoint_callback = callback

    @property
    def next_sequence(self) -> int:
        """The lowest sequence number not yet executed."""
        return self._next_sequence

    @property
    def last_executed(self) -> int:
        return self._next_sequence - 1

    @property
    def executed(self) -> List[ExecutionResult]:
        """Every execution in order (grows; callers must not mutate)."""
        return self._executed

    def already_executed(self, client_id: str, timestamp: int) -> bool:
        return (client_id, timestamp) in self._reply_cache

    def cached_reply(self, client_id: str, timestamp: int) -> Optional[Any]:
        """Reply previously produced for this client request, if any."""
        return self._reply_cache.get((client_id, timestamp))

    def commit(
        self, sequence: int, client_id: str, timestamp: int, operation: Operation
    ) -> List[ExecutionResult]:
        """Record that ``sequence`` is committed and execute whatever is ready.

        Returns the list of executions performed by this call (possibly
        empty when there is still a gap, possibly several when this commit
        fills one).
        """
        return self.commit_batch(sequence, [(client_id, timestamp, operation)])

    def commit_batch(
        self, sequence: int, entries: Sequence[BatchEntry], owned: bool = False
    ) -> List[ExecutionResult]:
        """Record that ``sequence`` committed a batch of requests.

        All requests of the batch execute under the same sequence number, in
        batch order, once every earlier sequence has executed.  Requests the
        replica already executed (client retransmissions that slipped into a
        later batch) are served from the reply cache instead of mutating
        state twice.  Callers that hand over a freshly built list they will
        never touch again pass ``owned=True`` to skip the defensive copy.
        """
        if sequence < 1:
            raise ValueError(f"sequence numbers start at 1, got {sequence}")
        if not entries:
            raise ValueError("a committed slot must contain at least one request")
        if sequence < self._next_sequence:
            return []
        if sequence in self._pending:
            return []
        self._pending[sequence] = entries if owned else list(entries)
        return self._drain()

    def _drain(self) -> List[ExecutionResult]:
        performed: List[ExecutionResult] = []
        pending = self._pending
        reply_cache = self._reply_cache
        executed = self._executed
        apply = self._state_machine.apply
        record = performed.append
        record_all = executed.append
        # tuple.__new__ bypasses the namedtuple's generated __new__ (an
        # eval'd lambda with keyword binding): one ExecutionResult is
        # allocated per executed request per replica, the single hottest
        # allocation in the repository.
        tuple_new = tuple.__new__
        result_cls = ExecutionResult
        while self._next_sequence in pending:
            sequence = self._next_sequence
            for client_id, timestamp, operation in pending.pop(sequence):
                key = (client_id, timestamp)
                result = reply_cache.get(key, _MISSING)
                if result is _MISSING:
                    result = apply(operation)
                    reply_cache[key] = result
                execution = tuple_new(result_cls, (sequence, client_id, timestamp, result))
                record_all(execution)
                record(execution)
            self._next_sequence += 1
            if (
                self._checkpoint_callback is not None
                and sequence % self._checkpoint_interval == 0
            ):
                self._checkpoint_callback(sequence)
        return performed

    # -- checkpoint support -------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """State-machine snapshot plus reply cache, for state transfer."""
        return {
            "next_sequence": self._next_sequence,
            "state": self._state_machine.snapshot(),
            "replies": dict(self._reply_cache),
        }

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Jump to a checkpointed state (used by lagging replicas)."""
        target = snapshot["next_sequence"]
        if target < self._next_sequence:
            return
        self._next_sequence = target
        self._state_machine.restore(snapshot["state"])
        self._reply_cache = dict(snapshot["replies"])
        self._pending = {seq: item for seq, item in self._pending.items() if seq >= target}

    def discard_below(self, sequence: int) -> None:
        """Drop buffered commits below ``sequence`` (post-checkpoint GC)."""
        self._pending = {seq: item for seq, item in self._pending.items() if seq >= sequence}
