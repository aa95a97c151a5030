"""Shard-aware closed-loop clients.

A :class:`ShardedClient` behaves exactly like the single-cluster
:class:`~repro.smr.client.Client` — same closed loop, same reply-quorum
acceptance, same retransmission discipline — except that every request is
first routed: the :class:`~repro.shard.router.ShardRouter` maps the
operation's key(s) to the owning shard, and the request is sent to (and
its replies judged against) *that shard's* configuration.  Each shard may
run a different SeeMoRe mode with different fault thresholds, so the
client keeps one session per shard: the shard's client config, its known
view, and its known mode all advance independently.

Cross-shard transactions occupy one slot of the client's window like any
other operation, but fan out through the client's
:class:`~repro.shard.coordinator.CrossShardCoordinator`: the prepare and
decide records are ordinary sub-requests (with their own timestamps, so
per-shard exactly-once semantics apply unchanged), and the transaction
completes — freeing the window slot and recording one aggregate
completion — only when every participant acknowledged the decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Optional

from repro.crypto.keys import KeyStore
from repro.crypto.signatures import Signer, Verifier
from repro.net.costs import NodeCostModel
from repro.net.topology import Placement
from repro.runtime.api import Runtime
from repro.shard.coordinator import CrossShardCoordinator, TransactionRecord
from repro.shard.router import ShardRouter
from repro.smr.client import Client, ClientConfig, CompletedRequest, _PendingRequest
from repro.smr.messages import Reply, Request
from repro.smr.state_machine import Operation
from repro.workload.client_pool import ClientPool
from repro.workload.generator import Workload
from repro.workload.metrics import MetricsCollector


@dataclass
class ShardSession:
    """One client's view of one shard: config plus tracked view/mode."""

    shard_id: int
    config: ClientConfig
    members: FrozenSet[str]
    known_view: int = 0
    known_mode: int = field(init=False)

    def __post_init__(self) -> None:
        self.known_mode = self.config.initial_mode


@dataclass
class _RequestMeta:
    """Routing metadata for one in-flight request.

    ``on_result`` is set for coordinator sub-requests (prepare/decide) and
    ``None`` for logical single-shard operations, which complete directly.
    """

    shard_id: int
    on_result: Optional[Callable[[Any], None]] = None


class ShardedClient(Client):
    """A closed-loop client of a sharded deployment."""

    def __init__(
        self,
        node_id: str,
        runtime: Runtime,
        signer: Signer,
        verifier: Verifier,
        sessions: Dict[int, ShardSession],
        router: ShardRouter,
        operation_factory: Callable[[int], Operation],
        recorder: Optional[Any] = None,
        shard_recorders: Optional[Dict[int, Any]] = None,
        max_requests: Optional[int] = None,
        cost_model: Optional[NodeCostModel] = None,
        window: int = 1,
        txn_timeout: Optional[float] = None,
    ) -> None:
        if not sessions:
            raise ValueError("a sharded client needs at least one shard session")
        super().__init__(
            node_id=node_id,
            runtime=runtime,
            signer=signer,
            verifier=verifier,
            # The base class keeps a single config; sharded routing consults
            # the per-shard sessions instead, but the uniform client-side
            # request timeout still comes from here.
            config=sessions[min(sessions)].config,
            operation_factory=operation_factory,
            recorder=recorder,
            max_requests=max_requests,
            cost_model=cost_model,
            window=window,
        )
        self.sessions = sessions
        self.router = router
        self.shard_recorders = shard_recorders or {}
        self._meta: Dict[int, _RequestMeta] = {}
        self._logical_issued = 0
        self._logical_outstanding = 0
        self._txn_parent: Dict[str, int] = {}
        self.coordinator = CrossShardCoordinator(
            submit=self._submit_subrequest,
            schedule=lambda delay, action: self.runtime.call_later(
                delay, action, label=f"{node_id}:txn-timeout"
            ),
            now=lambda: self.now,
            on_complete=self._on_transaction_complete,
            txn_timeout=txn_timeout,
        )

    # -- issuing ------------------------------------------------------------

    def _issue_next(self) -> bool:
        if self._stopped or self.crashed:
            return False
        if self._logical_outstanding >= self.window:
            return False
        if self.max_requests is not None and self._logical_issued >= self.max_requests:
            return False
        self._logical_issued += 1
        operation = self.operation_factory(self._logical_issued)
        shards = self.router.shards_of_operation(operation)
        self._logical_outstanding += 1
        if len(shards) > 1:
            parent_timestamp = self._next_timestamp + 1  # the first prepare's timestamp
            txn_id = f"{self.node_id}:{parent_timestamp}"
            self._txn_parent[txn_id] = parent_timestamp
            self.coordinator.begin(txn_id, self.router.split_writes(operation))
        else:
            self._submit(shards[0], operation, meta=_RequestMeta(shard_id=shards[0]))
        return True

    def _submit(self, shard_id: int, operation: Operation, meta: _RequestMeta) -> int:
        session = self.sessions[shard_id]
        self._next_timestamp += 1
        request = Request(
            operation=operation, timestamp=self._next_timestamp, client_id=self.node_id
        )
        request.sign(self.signer)
        self._pending[request.timestamp] = _PendingRequest(
            request=request, sent_at=self.now, last_sent_at=self.now
        )
        self._meta[request.timestamp] = meta
        targets = session.config.request_targets(session.known_view, session.known_mode)
        self._send_request(targets, request)
        if not self._timer.active:
            self._schedule_timer()
        return request.timestamp

    def _submit_subrequest(
        self, shard_id: int, operation: Operation, on_result: Callable[[Any], None]
    ) -> None:
        self._submit(shard_id, operation, meta=_RequestMeta(shard_id=shard_id, on_result=on_result))

    # -- retransmission -----------------------------------------------------

    def _on_timeout(self) -> None:
        self._armed_deadline = None  # the armed event just fired
        if not self._pending or self._stopped:
            return
        overdue = [
            (timestamp, pending)
            for timestamp, pending in self._pending.items()
            if self.now - pending.last_sent_at >= self.config.request_timeout - 1e-12
        ]
        if overdue:
            self.timeouts += 1
            for timestamp, pending in overdue:
                session = self.sessions[self._meta[timestamp].shard_id]
                pending.retransmitted = True
                pending.last_sent_at = self.now
                targets = session.config.targets_for_retransmit(
                    session.known_view, session.known_mode
                )
                self._send_request(targets, pending.request)
        self._schedule_timer()

    # -- replies ------------------------------------------------------------

    def _on_reply(self, src: str, reply: Reply) -> None:
        meta = self._meta.get(reply.timestamp)
        if meta is not None and src not in self.sessions[meta.shard_id].members:
            # A replica of another shard has no say over this request: its
            # vote must not count toward the owning shard's reply quorum.
            return
        super()._on_reply(src, reply)

    def _is_acceptable(self, reply: Reply, voters: set, pending: _PendingRequest) -> bool:
        config = self.sessions[self._meta[pending.request.timestamp].shard_id].config
        if reply.replica_id in config.trusted_for_mode(reply.mode):
            return True
        return len(voters) >= self._untrusted_reply_quorum(config, reply, pending)

    def _complete(self, reply: Reply, pending: _PendingRequest) -> None:
        self._flag_minority_replies(reply, pending)
        timestamp = pending.request.timestamp
        meta = self._meta.pop(timestamp)
        session = self.sessions[meta.shard_id]
        session.known_view = max(session.known_view, reply.view)
        session.known_mode = reply.mode
        del self._pending[timestamp]
        self._schedule_timer()
        if meta.on_result is not None:
            # Coordinator sub-request: hand the result over; the logical
            # transaction completes via _on_transaction_complete.
            meta.on_result(reply.result)
            return
        record = CompletedRequest(
            timestamp=timestamp,
            sent_at=pending.sent_at,
            completed_at=self.now,
            retransmitted=pending.retransmitted,
        )
        self._finish_logical(record, shard_id=meta.shard_id)

    def _on_transaction_complete(self, transaction: TransactionRecord) -> None:
        record = CompletedRequest(
            timestamp=self._txn_parent.pop(transaction.txn_id),
            sent_at=transaction.started_at,
            completed_at=self.now,
            retransmitted=False,
        )
        self._finish_logical(record, shard_id=None)

    def _finish_logical(self, record: CompletedRequest, shard_id: Optional[int]) -> None:
        self.completed.append(record)
        if self.recorder is not None:
            self.recorder.record_completion(
                client_id=self.node_id,
                timestamp=record.timestamp,
                sent_at=record.sent_at,
                completed_at=record.completed_at,
            )
        if shard_id is not None:
            shard_recorder = self.shard_recorders.get(shard_id)
            if shard_recorder is not None:
                shard_recorder.record_completion(
                    client_id=self.node_id,
                    timestamp=record.timestamp,
                    sent_at=record.sent_at,
                    completed_at=record.completed_at,
                )
        self._logical_outstanding -= 1
        self._fill_window()


class ShardedClientPool(ClientPool):
    """A :class:`~repro.workload.client_pool.ClientPool` of sharded clients.

    Same surface (``spawn`` / ``start_all`` / ``stop_all`` / totals), so
    runners and scenario engines drive sharded and single-cluster
    deployments alike; only the client it constructs differs — one routed
    :class:`ShardedClient` holding a fresh session per shard.
    """

    def __init__(
        self,
        runtime: Runtime,
        keystore: KeyStore,
        placement: Placement,
        session_factory: Callable[[], Dict[int, ShardSession]],
        router: ShardRouter,
        workload: Workload,
        metrics: Optional[MetricsCollector] = None,
        shard_recorders: Optional[Dict[int, MetricsCollector]] = None,
        txn_timeout: Optional[float] = None,
        name_prefix: str = "client",
    ) -> None:
        # No pool-wide client config: each client's sessions carry one per shard.
        super().__init__(runtime, keystore, placement, None, workload, metrics, name_prefix)
        self.session_factory = session_factory
        self.router = router
        self.shard_recorders = shard_recorders or {}
        self.txn_timeout = txn_timeout

    def _new_client(self, **kwargs) -> ShardedClient:
        return ShardedClient(
            sessions=self.session_factory(),
            router=self.router,
            shard_recorders=self.shard_recorders,
            txn_timeout=self.txn_timeout,
            **kwargs,
        )
