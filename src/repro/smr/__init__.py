"""State machine replication substrate.

The consensus protocols in this repository (SeeMoRe, Paxos, PBFT,
S-UpRight) agree on an *order* of client requests; this package provides
everything that sits above the ordering:

* :class:`~repro.smr.state_machine.StateMachine` — the deterministic
  application interface (with a key-value store, a counter, and a no-op
  machine used by the micro-benchmarks);
* :class:`~repro.smr.executor.OrderedExecutor` — executes committed
  requests strictly in sequence-number order, buffering gaps, with an
  exactly-once reply cache keyed by client timestamp;
* :class:`~repro.smr.ledger.CommitLedger` — the append-only record of what
  each replica committed, used by tests to assert safety across replicas.
"""

from repro.smr.state_machine import (
    Counter,
    KeyValueStore,
    NullStateMachine,
    Operation,
    StateMachine,
)
from repro.smr.executor import ExecutionResult, OrderedExecutor
from repro.smr.ledger import CommitLedger, LedgerEntry
from repro.smr.messages import ProtocolMessage, Reply, Request
from repro.smr.slots import Slot, SlotLog
from repro.smr.replica import ReplicaBase, request_digest
from repro.smr.client import Client, ClientConfig, CompletedRequest, ReplyRule, Session

__all__ = [
    "StateMachine",
    "KeyValueStore",
    "Counter",
    "NullStateMachine",
    "Operation",
    "OrderedExecutor",
    "ExecutionResult",
    "CommitLedger",
    "LedgerEntry",
    "ProtocolMessage",
    "Request",
    "Reply",
    "Slot",
    "SlotLog",
    "ReplicaBase",
    "request_digest",
    "Client",
    "ClientConfig",
    "CompletedRequest",
    "ReplyRule",
    "Session",
]
