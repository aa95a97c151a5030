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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import sha256
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence

from repro.adaptive.evidence import EvidenceKind, EvidenceLog
from repro.crypto.signatures import Signer, Verifier, WindowVerifier
from repro.net.costs import NodeCostModel
from repro.net.node import Node
from repro.smr.messages import _HEADER_BYTES, _SIGNATURE_BYTES, Busy, Reply, Request
from repro.smr.state_machine import Operation
from repro.wire.primitives import encode_request

#: Fixed per-request wire overhead (header + client signature), matching
#: ``Request.wire_size``.
_REQUEST_OVERHEAD = _HEADER_BYTES + _SIGNATURE_BYTES

TargetSelector = Callable[[int, int], List[str]]
OperationFactory = Callable[[int], Operation]


@dataclass
class ClientConfig:
    """How a client talks to a particular protocol deployment.

    Attributes:
        request_targets: ``(view, mode) -> node ids`` to send new requests to.
        replies_needed: matching replies required to accept a result.
        trusted_replicas: replicas whose single signed reply is sufficient
            (the private cloud in SeeMoRe's Lion mode, the leader in Paxos).
        retransmit_targets: ``(view, mode) -> node ids`` for retransmissions
            after a timeout; defaults to the request targets.
        retransmit_replies_needed: matching replies required after a
            retransmission (e.g. m+1 in the Lion and Dog modes); defaults to
            ``replies_needed``.
        untrusted_replies_needed: minimum matching replies to accept a
            result from *untrusted* replicas in a mode that has trusted
            repliers (m+1 in SeeMoRe's Lion mode, per the paper's client
            rule); defaults to ``retransmit_replies_needed``.  Irrelevant
            when ``trusted_replicas`` (and the per-mode overrides) are
            empty.
        request_timeout: seconds to wait before retransmitting.
        initial_mode: protocol mode id assumed before the first reply.
        replies_by_mode: optional per-mode override of ``replies_needed``;
            used when the deployment can switch modes dynamically.
        trusted_by_mode: optional per-mode override of ``trusted_replicas``.
        busy_backoff_base: first re-send delay after a signed ``Busy``
            reject from an admission-controlled primary; doubles per
            consecutive reject of the same request.
        busy_backoff_cap: upper bound on the per-request backoff delay.
        max_busy_retries: give up on a request after this many consecutive
            ``Busy`` rejects (the request is *shed*: dropped and counted,
            never completed).  ``None`` — the closed-loop default — retries
            forever; open-loop populations set a small bound so offered
            load actually drops during overload instead of queueing at the
            clients.
    """

    request_targets: TargetSelector
    replies_needed: int
    trusted_replicas: FrozenSet[str] = frozenset()
    retransmit_targets: Optional[TargetSelector] = None
    retransmit_replies_needed: Optional[int] = None
    untrusted_replies_needed: Optional[int] = None
    request_timeout: float = 0.05
    initial_mode: int = 0
    replies_by_mode: Optional[Dict[int, int]] = None
    trusted_by_mode: Optional[Dict[int, FrozenSet[str]]] = None
    busy_backoff_base: float = 0.005
    busy_backoff_cap: float = 0.08
    max_busy_retries: Optional[int] = None

    def targets_for_retransmit(self, view: int, mode: int) -> List[str]:
        selector = self.retransmit_targets or self.request_targets
        return selector(view, mode)

    def replies_for_mode(self, mode: int) -> int:
        if self.replies_by_mode and mode in self.replies_by_mode:
            return self.replies_by_mode[mode]
        return self.replies_needed

    def trusted_for_mode(self, mode: int) -> FrozenSet[str]:
        if self.trusted_by_mode and mode in self.trusted_by_mode:
            return self.trusted_by_mode[mode]
        return self.trusted_replicas

    @property
    def replies_needed_after_retransmit(self) -> int:
        if self.retransmit_replies_needed is None:
            return self.replies_needed
        return self.retransmit_replies_needed

    @property
    def untrusted_reply_floor(self) -> int:
        if self.untrusted_replies_needed is None:
            return self.replies_needed_after_retransmit
        return self.untrusted_replies_needed


@dataclass
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
    """One in-flight request and the reply votes gathered for it."""

    request: Request
    sent_at: float
    last_sent_at: float
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
        cost_model: Optional[NodeCostModel] = None,
        window: int = 1,
    ) -> None:
        super().__init__(node_id, runtime, cost_model=cost_model)
        if window < 1:
            raise ValueError(f"client window must be at least 1: {window}")
        self.signer = signer
        self.verifier = verifier
        # Replies arrive per-replica; the window verifier amortizes their
        # signature checks into per-sender transcript windows.
        self._window_verifier = WindowVerifier(verifier)
        self.config = config
        self.operation_factory = operation_factory
        self.recorder = recorder
        self.max_requests = max_requests
        self.window = window

        self.known_view = 0
        self.known_mode = config.initial_mode
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
        # Acceptance rules memoized per mode id: (trusted set, quorum,
        # quorum after retransmission).  The config's per-mode lookups run
        # once per reply otherwise, and the config never changes mid-run.
        self._mode_rules_cache: Dict[int, tuple] = {}
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

    @property
    def outstanding_timestamp(self) -> Optional[int]:
        """Oldest in-flight timestamp (None when nothing is outstanding)."""
        return next(iter(self._pending), None)

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
        now = self.now
        self._pending[timestamp] = _PendingRequest(
            request=request, sent_at=self._sent_time(), last_sent_at=now
        )
        targets = self.config.request_targets(self.known_view, self.known_mode)
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
        return True

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
        next_deadline = oldest + self.config.request_timeout
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
        targets = self.config.targets_for_retransmit(self.known_view, self.known_mode)
        overdue = [
            pending
            for pending in self._pending.values()
            if self.now - pending.last_sent_at >= self.config.request_timeout - 1e-12
        ]
        if overdue:
            self.timeouts += 1
            for pending in overdue:
                pending.retransmitted = True
                pending.last_sent_at = self.now
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
        if busy.replica_id != src:
            return
        if not self._window_verifier.verify(busy.replica_id, busy):
            return
        self.busy_rejects += 1
        pending.busy_attempts += 1
        limit = self.config.max_busy_retries
        if limit is not None and pending.busy_attempts > limit:
            self._shed(pending)
            return
        delay = min(
            self.config.busy_backoff_cap,
            self.config.busy_backoff_base * (2 ** (pending.busy_attempts - 1)),
        )
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
            targets = self.config.request_targets(self.known_view, self.known_mode)
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
        pending = self._pending.get(reply.timestamp)
        if pending is None:
            return
        if reply.client_id != self.node_id:
            return
        if not self._window_verifier.verify(reply.replica_id, reply):
            return
        if reply.replica_id != src:
            # A replica relaying someone else's reply is not acceptable.
            return

        result_key = reply.result_digest()
        voters = pending.votes.setdefault(result_key, set())
        voters.add(reply.replica_id)

        if self._is_acceptable(reply, voters, pending):
            self._complete(reply, pending)

    def _is_acceptable(self, reply: Reply, voters: set, pending: _PendingRequest) -> bool:
        rules = self._mode_rules_cache.get(reply.mode)
        if rules is None:
            rules = self._mode_rules(reply.mode)
        trusted, quorum, retransmit_quorum = rules
        if reply.replica_id in trusted:
            return True
        return len(voters) >= (retransmit_quorum if pending.retransmitted else quorum)

    def _mode_rules(self, mode: int) -> tuple:
        """Memoized acceptance rules for ``mode``.

        Precomputes exactly what :meth:`_untrusted_reply_quorum` derives per
        reply: the trusted-replica set and the untrusted quorum before and
        after retransmission (both floored at ``untrusted_reply_floor`` when
        the mode has trusted repliers).
        """
        config = self.config
        trusted = config.trusted_for_mode(mode)
        quorum = config.replies_for_mode(mode)
        retransmit_quorum = config.replies_needed_after_retransmit
        if trusted:
            floor = config.untrusted_reply_floor
            quorum = max(quorum, floor)
            retransmit_quorum = max(retransmit_quorum, floor)
        rules = (trusted, quorum, retransmit_quorum)
        self._mode_rules_cache[mode] = rules
        return rules

    @staticmethod
    def _untrusted_reply_quorum(config: ClientConfig, reply: Reply, pending) -> int:
        """Matching *untrusted* replies needed to accept under ``config``.

        A mode whose normal-case quorum is one *trusted* reply (Lion: the
        private primary) must never extend that shortcut to an untrusted
        replica: per the paper's Lion rule, public-cloud results are only
        acceptable as ``untrusted_reply_floor`` (m+1) matching replies, or
        a single forged reply racing the primary's would be accepted.
        Shared with the sharded client, which judges each reply against
        its shard's own config.
        """
        needed = (
            config.replies_needed_after_retransmit
            if pending.retransmitted
            else config.replies_for_mode(reply.mode)
        )
        if config.trusted_for_mode(reply.mode):
            needed = max(needed, config.untrusted_reply_floor)
        return needed

    def _flag_minority_replies(self, reply: Reply, pending) -> None:
        """Evidence: replicas whose signed result the accepted quorum contradicts.

        Any replica that signed a *different* result for this request is
        provably faulty once a result is accepted; called from every
        completion path before the pending entry (and its votes) is
        dropped.
        """
        votes = pending.votes
        accepted_key = reply.result_digest()
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

    def _complete(self, reply: Reply, pending: _PendingRequest) -> None:
        self._flag_minority_replies(reply, pending)
        record = CompletedRequest(
            timestamp=pending.request.timestamp,
            sent_at=pending.sent_at,
            completed_at=self.now,
            retransmitted=pending.retransmitted,
        )
        self.completed.append(record)
        if self.recorder is not None:
            self.recorder.record_completion(
                client_id=self.node_id,
                timestamp=record.timestamp,
                sent_at=record.sent_at,
                completed_at=record.completed_at,
            )
        # Track the view/mode the service reports so future requests go to
        # the right primary after view changes and mode switches.
        self.known_view = max(self.known_view, reply.view)
        self.known_mode = reply.mode
        del self._pending[pending.request.timestamp]
        if self._busy_resends:
            self._busy_resends.pop(pending.request.timestamp, None)
        self._schedule_timer()
        self._fill_window()
