"""Ordered execution of committed requests.

A consensus protocol may commit sequence numbers out of order (e.g. a
replica learns about n=7 before n=6 arrives).  The executor buffers such
gaps and applies operations to the state machine strictly in order, which
is the property that guarantees all correct replicas converge.

It also implements the exactly-once client semantics from Section 5.1: the
client timestamp identifies a request, and re-executing a request that was
already executed returns the cached reply instead of mutating state twice.
Replies are kept per client, as PBFT keeps them, so a checkpoint records
each client's table length (:class:`ExecutorCut`), not a copy of them.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

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


class ExecutionHistory:
    """Every execution in order, flattened into one list of their four fields.

    Reads like a list of :class:`ExecutionResult` — ``len``, iteration and
    slicing build them on demand — at four references per execution instead
    of a tuple each: in a long run the history is the largest thing a
    replica keeps.
    """

    __slots__ = ("_fields",)

    def __init__(self) -> None:
        self._fields: List[Any] = []

    def append(self, execution: ExecutionResult) -> None:
        self._fields.extend(execution)

    def extend(self, executions: Iterable[ExecutionResult]) -> None:
        for execution in executions:
            self._fields.extend(execution)

    def __len__(self) -> int:
        return len(self._fields) // 4

    def __iter__(self) -> Iterator[ExecutionResult]:
        fields = iter(self._fields)
        return map(ExecutionResult, fields, fields, fields, fields)

    def __getitem__(self, index: slice) -> List[ExecutionResult]:
        start, stop, _ = index.indices(len(self))
        fields = iter(self._fields[4 * start : 4 * stop])
        return list(map(ExecutionResult, fields, fields, fields, fields))


class ExecutorCut(NamedTuple):
    """The executor at a checkpoint boundary, in O(clients) space.

    A client's reply table only ever grows by appending (a restore installs
    new tables rather than editing old ones), so its first ``length``
    entries are exactly its replies at the cut, for as long as the cut lives.
    """

    next_sequence: int
    state: Any
    lengths: Tuple[Tuple[str, Dict[int, Any], int], ...]

    def snapshot(self) -> Dict[str, Any]:
        """The ``{"next_sequence", "state", "replies"}`` snapshot at the cut."""
        return {
            "next_sequence": self.next_sequence,
            "state": self.state,
            "replies": {
                (client_id, timestamp): result
                for client_id, table, length in self.lengths
                for timestamp, result in islice(table.items(), length)
            },
        }


class OrderedExecutor:
    """Applies committed operations in strict sequence-number order."""

    def __init__(self, state_machine: StateMachine) -> None:
        self._state_machine = state_machine
        self._pending: Dict[int, List[BatchEntry]] = {}
        self._next_sequence = 1
        self._replies: Dict[str, Dict[int, Any]] = {}
        self._executed = ExecutionHistory()
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
    def executed(self) -> ExecutionHistory:
        """Every execution in order (grows; callers must not mutate)."""
        return self._executed

    def replies_to(self, client_id: str) -> Dict[int, Any]:
        """Every reply produced for ``client_id``, by timestamp (callers must not mutate).

        A timestamp is present exactly when that request executed, whatever
        its result — ``None`` included.
        """
        return self._replies.get(client_id, {})

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
        replies = self._replies
        executed = self._executed
        apply = self._state_machine.apply
        record = performed.append
        record_all = executed._fields.extend
        # tuple.__new__ bypasses the namedtuple's generated __new__ (an
        # eval'd lambda with keyword binding): one ExecutionResult is
        # allocated per executed request per replica, the single hottest
        # allocation in the repository.  The history keeps its four fields,
        # not the tuple.
        tuple_new = tuple.__new__
        result_cls = ExecutionResult
        while self._next_sequence in pending:
            sequence = self._next_sequence
            for client_id, timestamp, operation in pending.pop(sequence):
                table = replies.get(client_id)
                if table is None:
                    table = replies[client_id] = {}
                result = table.get(timestamp, _MISSING)
                if result is _MISSING:
                    result = table[timestamp] = apply(operation)
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

    def cut(self) -> ExecutorCut:
        """Where execution stands now: one state-machine snapshot and each reply table's length."""
        return ExecutorCut(
            self._next_sequence,
            self._state_machine.snapshot(),
            tuple((client_id, table, len(table)) for client_id, table in self._replies.items()),
        )

    def snapshot(self) -> Dict[str, Any]:
        """State-machine snapshot plus every reply, for state transfer."""
        return self.cut().snapshot()

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Jump to a checkpointed state (used by lagging replicas)."""
        target = snapshot["next_sequence"]
        if target < self._next_sequence:
            return
        self._next_sequence = target
        self._state_machine.restore(snapshot["state"])
        self._replies = {}
        for (client_id, timestamp), result in snapshot["replies"].items():
            self._replies.setdefault(client_id, {})[timestamp] = result
        self._pending = {seq: item for seq, item in self._pending.items() if seq >= target}

    def discard_below(self, sequence: int) -> None:
        """Drop buffered commits below ``sequence`` (post-checkpoint GC)."""
        self._pending = {seq: item for seq, item in self._pending.items() if seq >= sequence}
