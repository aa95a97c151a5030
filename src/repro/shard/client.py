"""Shard-aware closed-loop clients.

A :class:`ShardedClient` *is* the single-cluster
:class:`~repro.smr.client.Client` — the same signing, retransmission,
``Busy`` backoff, membership filter, reply quorum and completion code, not
a copy of it — holding one :class:`~repro.smr.client.Session` per shard
instead of one.  Each shard may run a different SeeMoRe mode with
different fault thresholds, so each session's config, known view and known
mode advance independently, and every request is judged by the session it
was sent on.  What this module adds is only what is different about
shards: the :class:`~repro.shard.router.ShardRouter` that maps an
operation's key(s) to the owning shard, a window counted in *logical*
operations, the cross-shard coordinator, and per-shard metrics.

Cross-shard transactions occupy one slot of the client's window like any
other operation, but fan out through the client's
:class:`~repro.shard.coordinator.CrossShardCoordinator`: the prepare and
decide records are ordinary sub-requests (with their own timestamps, so
per-shard exactly-once semantics apply unchanged), and the transaction
completes — freeing the window slot and recording one aggregate
completion — only when every participant acknowledged the decision.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from repro.shard.coordinator import CrossShardCoordinator, TransactionRecord
from repro.shard.router import ShardRouter
from repro.smr.client import Client, ClientConfig, CompletedRequest, Session


class ShardedClient(Client):
    """A closed-loop client of a sharded deployment."""

    def __init__(
        self,
        configs: Sequence[ClientConfig],
        router: ShardRouter,
        shard_recorders: Optional[Dict[int, Any]] = None,
        txn_timeout: Optional[float] = None,
        **client: Any,
    ) -> None:
        """``client`` is everything :class:`~repro.smr.client.Client` takes but ``config``."""
        if not configs:
            raise ValueError("a sharded client needs at least one shard config")
        super().__init__(config=configs[0], **client)
        # The base class opened shard 0's session; one more per further shard.
        self.sessions += [
            Session(index, config) for index, config in enumerate(configs[1:], start=1)
        ]
        self.router = router
        self.shard_recorders = shard_recorders or {}
        self._logical_issued = 0
        self._logical_outstanding = 0
        # txn id -> (the first prepare's timestamp, when the transaction counts as sent).
        self._txn_parent: Dict[str, Tuple[int, float]] = {}
        self.coordinator = CrossShardCoordinator(
            submit=lambda shard, operation, on_result: self._submit(
                self.sessions[shard], operation, self.now, on_result
            ),
            schedule=lambda delay, action: self.runtime.call_later(
                delay, action, label=f"{self.node_id}:txn-timeout"
            ),
            now=lambda: self.now,
            on_complete=self._on_transaction_complete,
            txn_timeout=txn_timeout,
        )

    # ``benchmarks/e2e/adapters.py`` traces ``ShardedClient.__dict__["_on_timeout"]``;
    # it is the one retransmit scan, not an override.
    _on_timeout = Client._on_timeout

    def _issue_next(self) -> bool:
        if self._stopped or self.crashed:
            return False
        if self._logical_outstanding >= self.window:
            return False
        if self.max_requests is not None and self._logical_issued >= self.max_requests:
            return False
        # The same two hooks Client._issue_next draws from, so an open-loop
        # connection (arrivals from a driver's backlog, latency stamped from
        # arrival) composes with routing.
        operation = self._next_operation(self._logical_issued + 1)
        if operation is None:
            return False
        sent_at = self._sent_time()
        self._logical_issued += 1
        shards = self.router.shards_of_operation(operation)
        self._logical_outstanding += 1
        if len(shards) > 1:
            parent_timestamp = self._next_timestamp + 1  # the first prepare's timestamp
            txn_id = f"{self.node_id}:{parent_timestamp}"
            self._txn_parent[txn_id] = (parent_timestamp, sent_at)
            self.coordinator.begin(txn_id, self.router.split_writes(operation))
        else:
            self._submit(self.sessions[shards[0]], operation, sent_at)
        return True

    def _on_transaction_complete(self, transaction: TransactionRecord) -> None:
        timestamp, sent_at = self._txn_parent.pop(transaction.txn_id)
        record = CompletedRequest(
            timestamp=timestamp, sent_at=sent_at, completed_at=self.now, retransmitted=False
        )
        self._finish(record, None)

    def on_shed(self, timestamp: int) -> None:
        """A shed request gives its logical window slot back.

        Only whole logical requests are ever shed: a 2PC sub-request backs
        off and retries for as long as it takes (see ``Client._on_busy``).
        """
        self._logical_outstanding -= 1
        super().on_shed(timestamp)

    def _finish(self, record: CompletedRequest, session: Optional[Session]) -> None:
        if session is not None:
            self._record(self.shard_recorders.get(session.index), record)
        self._logical_outstanding -= 1
        super()._finish(record, session)
