"""Closed-loop replicated-service client.

The client behaviour follows Section 5 of the paper:

* it sends each request to the node(s) it believes can order it (the
  primary in the Lion/Dog modes and in Paxos; the primary proxy in the
  Peacock mode and PBFT);
* it accepts a result once it has *matching* replies from enough distinct
  replicas -- one signed reply from a trusted replica, or a quorum of
  matching replies from untrusted ones, depending on the protocol/mode;
* if no acceptable reply arrives within a timeout it retransmits the same
  request to a wider set of replicas, which is also what eventually exposes
  a faulty primary and triggers a view change.

The client is *closed loop*: it keeps a fixed window of requests
outstanding and issues the next one as soon as a previous one completes.
With the default ``window=1`` this is exactly the load model used in the
paper's experiments (each client "waits for the reply before sending a
subsequent request"); a larger window pipelines several requests, which is
how the batching benchmarks offer enough concurrent load for primaries to
fill their batches without simulating thousands of client objects.

Everything a client knows about one replica group — its
:class:`ClientConfig`, the view and mode it last saw, the per-mode
:class:`ReplyRule` table — is a :class:`Session`, and every in-flight
request carries the session it was sent on.  Issue, retransmission,
``Busy`` backoff, the membership filter, vote counting, acceptance and
completion are written once here against ``pending.session``:
``Client(config=...)`` is the one-session case, and
:class:`~repro.shard.client.ShardedClient` only adds a session per shard
and the routing that picks one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import sha256
from typing import Any, Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence

from repro.adaptive.evidence import EvidenceKind, EvidenceLog
from repro.crypto.signatures import Signer, Verifier, WindowVerifier
from repro.net.node import Node
from repro.smr.messages import _HEADER_BYTES, _SIGNATURE_BYTES, Busy, Reply, Request
from repro.smr.state_machine import Operation
from repro.wire.primitives import encode_request

#: Fixed per-request wire overhead (header + client signature), matching
#: ``Request.wire_size``.
_REQUEST_OVERHEAD = _HEADER_BYTES + _SIGNATURE_BYTES
#: First re-send delay after a signed ``Busy`` reject from an
#: admission-controlled primary; it doubles per consecutive reject of the
#: same request, up to ``BUSY_BACKOFF_CAP``.
BUSY_BACKOFF_BASE = 0.005
BUSY_BACKOFF_CAP = 0.08

TargetSelector = Callable[[int, int], List[str]]
OperationFactory = Callable[[int], Operation]


class ReplyRule(NamedTuple):
    """When a client accepts a result in one mode (the paper's Section 5 rule).

    One signed reply from a member of ``trusted`` suffices; from anyone
    else it takes ``quorum`` matching replies from distinct members, or
    ``retransmit_quorum`` once the request has been retransmitted.
    """

    trusted: FrozenSet[str]
    quorum: int
    retransmit_quorum: int


@dataclass
class ClientConfig:
    """How a client talks to one replica group.

    Attributes:
        request_targets: ``(view, mode) -> node ids`` to send new requests to.
        retransmit_targets: ``(view, mode) -> node ids`` for retransmissions
            after a timeout.
        rules: ``mode id -> ReplyRule``, the whole acceptance rule.  A reply
            reporting a mode id the table does not list is judged by
            ``initial_mode``'s rule.
        members: the group's replicas; only they have a say over a request
            sent to the group (anyone else's ``Reply`` or ``Busy`` is ignored).
        request_timeout: seconds to wait before retransmitting.
        initial_mode: protocol mode id assumed before the first reply.
        max_busy_retries: give up on a request after this many consecutive
            ``Busy`` rejects (the request is *shed*: dropped and counted,
            never completed).  ``None`` — the closed-loop default — retries
            forever; open-loop populations set a small bound so offered
            load actually drops during overload instead of queueing at the
            clients.
    """

    request_targets: TargetSelector
    retransmit_targets: TargetSelector
    rules: Dict[int, ReplyRule]
    members: FrozenSet[str]
    request_timeout: float = 0.05
    initial_mode: int = 0
    max_busy_retries: Optional[int] = None


@dataclass
class Session:
    """One client's view of one replica group: config plus tracked view/mode."""

    index: int
    config: ClientConfig
    known_view: int = 0
    known_mode: int = field(init=False)
    rules: Dict[int, ReplyRule] = field(init=False)

    def __post_init__(self) -> None:
        self.known_mode = self.config.initial_mode
        # The session's own copy: unlisted mode ids are memoized into it.
        self.rules = dict(self.config.rules)


@dataclass(slots=True)
class CompletedRequest:
    """Latency record for one completed request."""

    timestamp: int
    sent_at: float
    completed_at: float
    retransmitted: bool

    @property
    def latency(self) -> float:
        return self.completed_at - self.sent_at


@dataclass
class _PendingRequest:
    """One in-flight request and the reply votes gathered for it.

    ``on_result`` is set for a cross-shard coordinator's sub-requests
    (prepare/decide), which hand their result over instead of completing a
    logical request.
    """

    request: Request
    session: Session
    sent_at: float
    last_sent_at: float
    on_result: Optional[Callable[[Any], None]] = None
    retransmitted: bool = False
    votes: Dict[str, set] = field(default_factory=dict)
    busy_attempts: int = 0


class Client(Node):
    """A closed-loop client of a replicated service."""

    def __init__(
        self,
        node_id: str,
        runtime: Any,
        signer: Signer,
        verifier: Verifier,
        config: ClientConfig,
        operation_factory: OperationFactory,
        recorder: Optional[Any] = None,
        max_requests: Optional[int] = None,
        window: int = 1,
    ) -> None:
        super().__init__(node_id, runtime)
        if window < 1:
            raise ValueError(f"client window must be at least 1: {window}")
        self.signer = signer
        self.verifier = verifier
        # Replies arrive per-replica; the window verifier amortizes their
        # signature checks into per-sender transcript windows.
        self._window_verifier = WindowVerifier(verifier)
        # One session per replica group, indexed by group; a single-cluster
        # client has exactly one.  One retransmit timer serves them all, so
        # the timeout is the client's (builders give every group the same).
        self.sessions: List[Session] = [Session(0, config)]
        self.request_timeout = config.request_timeout
        self.operation_factory = operation_factory
        self.recorder = recorder
        self.max_requests = max_requests
        self.window = window

        self.completed: List[CompletedRequest] = []
        self.timeouts = 0
        # Admission-control interactions: rejects received, and requests
        # abandoned after ``max_busy_retries`` consecutive rejects.
        self.busy_rejects = 0
        self.shed_requests = 0
        # Fault evidence this client observed (signed replies carrying a
        # result the accepted quorum contradicts); consumed by the adaptive
        # controller.
        self.evidence = EvidenceLog(node_id, self.runtime)

        self._next_timestamp = 0
        # Insertion-ordered map of timestamp -> pending request (oldest first).
        self._pending: Dict[int, _PendingRequest] = {}
        # timestamp -> simulated time at which to re-send after a Busy
        # reject; served by a dedicated timer so backoff delays (which
        # shrink and grow per request) never disturb the retransmit timer's
        # oldest-deadline bookkeeping.
        self._busy_resends: Dict[int, float] = {}
        self._busy_timer = self.create_timer(self._on_busy_resend, label="busy-backoff")
        self._timer = self.create_timer(self._on_timeout, label="request-timeout")
        # Deadline the timer is currently armed for; lets completions skip
        # re-arming when the oldest outstanding transmission is unchanged.
        self._armed_deadline: Optional[float] = None
        self._stopped = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Begin the closed loop (fills the request window immediately)."""
        self._stopped = False
        self._fill_window()

    def stop(self) -> None:
        """Stop issuing new requests (outstanding ones may still finish)."""
        self._stopped = True
        self._timer.stop()
        self._busy_timer.stop()

    @property
    def completed_count(self) -> int:
        return len(self.completed)

    @property
    def outstanding_count(self) -> int:
        return len(self._pending)

    # -- issuing ------------------------------------------------------------

    def _fill_window(self) -> None:
        while self._issue_next():
            pass

    def _issue_next(self) -> bool:
        if self._stopped or self.crashed:
            return False
        if len(self._pending) >= self.window:
            return False
        if self.max_requests is not None and self._next_timestamp >= self.max_requests:
            return False
        operation = self._next_operation(self._next_timestamp + 1)
        if operation is None:
            return False
        self._submit(self.sessions[0], operation, self._sent_time())
        return True

    def _submit(
        self,
        session: Session,
        operation: Operation,
        sent_at: float,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Sign one request and send it to ``session``'s group.

        Every request of every client goes out through here; ``sent_at`` is
        when it counts as sent for its latency record.
        """
        self._next_timestamp += 1
        timestamp = self._next_timestamp
        # Fused signing path (mirrors ReplicaBase.send_reply): one request
        # goes out per completion in the closed loop, so the wire frame,
        # content digest, wire size, and signature are built in one pass and
        # seeded into the message — exactly what ``request.sign(self.signer)``
        # would compute through three lazy layers (sign -> digest_of ->
        # wire_slice -> signing_bytes).
        frame = encode_request(
            timestamp, self.node_id, operation.kind, operation.args, operation.payload
        )
        content_digest = sha256(frame).hexdigest()
        request = Request(
            operation=operation,
            timestamp=timestamp,
            client_id=self.node_id,
            signature=self.signer.sign_digest(content_digest),
        )
        request.seed_wire_caches(
            frame, content_digest, _REQUEST_OVERHEAD + operation.wire_size()
        )
        self._pending[timestamp] = _PendingRequest(
            request, session, sent_at, self.now, on_result
        )
        targets = session.config.request_targets(session.known_view, session.known_mode)
        if len(targets) == 1:
            # The steady-state Lion/Dog/Peacock client sends to exactly one
            # primary; skip the dedup pass of _send_request.
            self.send(targets[0], request)
        else:
            self._send_request(targets, request)
        # A newly issued request's deadline (now + timeout) can never be
        # earlier than the armed deadline (the min over older requests), so
        # an active timer needs no re-arming — only arm from cold.
        if not self._timer.active:
            self._schedule_timer()

    def _next_operation(self, timestamp: int) -> Optional[Operation]:
        """The operation the next request should carry (``None`` = nothing).

        Closed-loop default: ask the operation factory, which always has a
        next operation.  The open-loop connection overrides this to pull
        from its driver's arrival backlog, which may be empty.
        """
        return self.operation_factory(timestamp)

    def _sent_time(self) -> float:
        """When the request being issued counts as sent, for latency records.

        The open-loop connection overrides this to return the request's
        *arrival* time, so queueing behind the bounded connection pool
        counts toward the measured latency.
        """
        return self.now

    def _send_request(self, targets: Sequence[str], request: Request) -> None:
        unique_targets = list(dict.fromkeys(targets))
        if len(unique_targets) == 1:
            self.send(unique_targets[0], request)
        else:
            self.multicast(unique_targets, request)

    def _schedule_timer(self) -> None:
        """Arm the timer for the oldest outstanding transmission's deadline.

        One timer serves the whole window, but each request keeps its own
        deadline (``last_sent_at + timeout``), so a request issued moments
        before the timer fires is not retransmitted prematurely.
        """
        if not self._pending or self._stopped:
            self._timer.stop()
            return
        if self.timeouts or self.busy_rejects:
            # After any retransmission (or Busy backoff, which parks
            # last_sent_at in the future), per-entry deadlines are no longer
            # monotone in insertion order: scan for the minimum.  Plain
            # loop — a genexpr frame per window entry is measurable at
            # high request rates.
            oldest = None
            for pending in self._pending.values():
                sent_at = pending.last_sent_at
                if oldest is None or sent_at < oldest:
                    oldest = sent_at
        else:
            # No retransmission has ever happened, so every entry's
            # last_sent_at is its issue time, which is monotone in the
            # insertion-ordered pending map: the oldest outstanding
            # transmission is the first entry.
            oldest = next(iter(self._pending.values())).last_sent_at
        next_deadline = oldest + self.request_timeout
        if next_deadline == self._armed_deadline and self._timer.active:
            # Completing a mid-window request leaves the oldest deadline
            # unchanged; the armed timer is still exactly right.
            return
        self._armed_deadline = next_deadline
        self._timer.start(max(0.0, next_deadline - self.now))

    def _on_timeout(self) -> None:
        self._armed_deadline = None  # the armed event just fired
        if not self._pending or self._stopped:
            return
        now = self.now
        overdue = [
            pending
            for pending in self._pending.values()
            if now - pending.last_sent_at >= self.request_timeout - 1e-12
        ]
        if overdue:
            self.timeouts += 1
            for pending in overdue:
                session = pending.session
                pending.retransmitted = True
                pending.last_sent_at = now
                targets = session.config.retransmit_targets(
                    session.known_view, session.known_mode
                )
                self._send_request(targets, pending.request)
        self._schedule_timer()

    # -- replies ------------------------------------------------------------

    def handle_message(self, src: str, payload: Any) -> None:
        if isinstance(payload, Reply):
            self._on_reply(src, payload)
        elif isinstance(payload, Busy):
            self._on_busy(src, payload)

    # -- admission-control backoff -------------------------------------------

    def _on_busy(self, src: str, busy: Busy) -> None:
        """Handle a signed admission-control reject from the primary.

        The request stays pending but is re-sent only after a capped
        exponential backoff; with ``max_busy_retries`` configured the
        request is abandoned (shed) once the primary has rejected it that
        many times in a row.
        """
        pending = self._pending.get(busy.timestamp)
        if pending is None:
            return
        if busy.client_id != self.node_id:
            return
        config = pending.session.config
        if busy.replica_id != src or src not in config.members:
            return
        if not self._window_verifier.verify(busy.replica_id, busy):
            return
        self.busy_rejects += 1
        pending.busy_attempts += 1
        limit = config.max_busy_retries
        # A 2PC sub-request is never shed: a participant that prepared must
        # learn the decision, so it backs off and retries like a closed loop.
        if limit is not None and pending.busy_attempts > limit and pending.on_result is None:
            self._shed(pending)
            return
        delay = min(BUSY_BACKOFF_CAP, BUSY_BACKOFF_BASE * (2 ** (pending.busy_attempts - 1)))
        resend_at = self.now + delay
        self._busy_resends[busy.timestamp] = resend_at
        # Park the retransmit deadline past the resend time so the regular
        # timeout path cannot fire a wide retransmission mid-backoff (the
        # overdue check sees a negative age and skips the entry).
        pending.last_sent_at = resend_at
        self._schedule_timer()
        self._arm_busy_timer()

    def _arm_busy_timer(self) -> None:
        if not self._busy_resends or self._stopped:
            self._busy_timer.stop()
            return
        earliest = min(self._busy_resends.values())
        self._busy_timer.start(max(0.0, earliest - self.now))

    def _on_busy_resend(self) -> None:
        now = self.now
        due = [ts for ts, when in self._busy_resends.items() if when <= now + 1e-12]
        for timestamp in due:
            del self._busy_resends[timestamp]
            pending = self._pending.get(timestamp)
            if pending is None:
                continue
            pending.last_sent_at = now
            session = pending.session
            targets = session.config.request_targets(session.known_view, session.known_mode)
            self._send_request(targets, pending.request)
        self._arm_busy_timer()
        self._schedule_timer()

    def _shed(self, pending: _PendingRequest) -> None:
        """Abandon a request the primary keeps rejecting (load shedding).

        The request never completes and records no latency sample — it is
        counted in :attr:`shed_requests` instead, which is exactly what
        keeps an overloaded system's *served* latency honest: the excess
        shows up as sheds, not as samples that would drown the percentile.
        """
        timestamp = pending.request.timestamp
        self.shed_requests += 1
        del self._pending[timestamp]
        self._busy_resends.pop(timestamp, None)
        self.on_shed(timestamp)
        self._schedule_timer()
        self._fill_window()

    def on_shed(self, timestamp: int) -> None:
        """Hook: called when a request is abandoned after repeated rejects."""

    def _on_reply(self, src: str, reply: Reply) -> None:
        """Count one replica's signed reply toward each request it answers.

        The reply is checked once — addressed to this client, sent by the
        replica that signed it, from a member of the group each answered
        request went to, with a valid signature — and the signature is not
        checked at all when none of its requests is still pending.  Each
        entry then gets its own vote under its session's rule.
        """
        if reply.client_id != self.node_id or reply.replica_id != src:
            # Not this client's, or a replica relaying someone else's reply.
            return
        pending_requests = self._pending
        live = []
        for timestamp, result, result_key in reply.entries():
            pending = pending_requests.get(timestamp)
            if pending is None:
                continue
            if src not in pending.session.config.members:
                # Only the group the request went to has a say over it: not
                # another shard's replicas, not another client's identity.
                return
            live.append((pending, result, result_key))
        if not live or not self._window_verifier.verify(src, reply):
            return
        for pending, result, result_key in live:
            if pending_requests.get(pending.request.timestamp) is not pending:
                continue  # completed by an earlier entry: a reply built in memory may repeat one
            voters = pending.votes.setdefault(result_key, set())
            voters.add(src)
            if self._is_acceptable(reply, voters, pending):
                self._complete(reply, pending, result, result_key)

    def _is_acceptable(self, reply: Reply, voters: set, pending: _PendingRequest) -> bool:
        session = pending.session
        rule = session.rules.get(reply.mode)
        if rule is None:
            rule = session.rules[reply.mode] = session.rules[session.config.initial_mode]
        trusted, quorum, retransmit_quorum = rule
        if reply.replica_id in trusted:
            return True
        return len(voters) >= (retransmit_quorum if pending.retransmitted else quorum)

    def _flag_minority_replies(self, accepted_key: str, pending) -> None:
        """Evidence: replicas whose signed result the accepted quorum contradicts.

        Any replica that signed a *different* result for this request is
        provably faulty once a result is accepted; called from every
        completion path before the pending entry (and its votes) is
        dropped.
        """
        votes = pending.votes
        if len(votes) == 1 and accepted_key in votes:
            # Fast path: every reply agreed (the accepted key is always in
            # the vote map — _on_reply records it before completing).
            return
        for result_key, voters in votes.items():
            if result_key == accepted_key:
                continue
            for suspect in sorted(voters):
                self.evidence.record(
                    EvidenceKind.FORGED_REPLY,
                    suspect=suspect,
                    detail=f"timestamp={pending.request.timestamp}",
                )

    def _complete(
        self, reply: Reply, pending: _PendingRequest, result: Any, result_key: str
    ) -> None:
        """Accept ``result`` (digest ``result_key``), an entry of ``reply``, for ``pending``."""
        self._flag_minority_replies(result_key, pending)
        # Track the view/mode the group reports so future requests go to
        # the right primary after view changes and mode switches.
        session = pending.session
        session.known_view = max(session.known_view, reply.view)
        session.known_mode = reply.mode
        timestamp = pending.request.timestamp
        del self._pending[timestamp]
        if self._busy_resends:
            self._busy_resends.pop(timestamp, None)
        self._schedule_timer()
        if pending.on_result is not None:
            pending.on_result(result)
            return
        record = CompletedRequest(
            timestamp=timestamp,
            sent_at=pending.sent_at,
            completed_at=self.now,
            retransmitted=pending.retransmitted,
        )
        self._finish(record, session)

    def _finish(self, record: CompletedRequest, session: Optional[Session]) -> None:
        """Record one logical completion and refill the window.

        ``session`` is the group that served it (``None`` for a cross-shard
        transaction, which no single group did).
        """
        self.completed.append(record)
        self._record(self.recorder, record)
        self._fill_window()

    def _record(self, recorder: Optional[Any], record: CompletedRequest) -> None:
        if recorder is not None:
            recorder.record_completion(
                client_id=self.node_id,
                timestamp=record.timestamp,
                sent_at=record.sent_at,
                completed_at=record.completed_at,
            )
