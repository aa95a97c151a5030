"""Common replica machinery shared by SeeMoRe and the baseline protocols.

:class:`ReplicaBase` couples a network node with the SMR substrate: an
ordered executor over a state machine, a commit ledger for safety checking,
a slot log, crypto material, and exactly-once replies from the executor's
reply cache.  What every agreement engine does the same way is written here
once: the request intake (:meth:`ReplicaBase.on_request`, which hands a
fresh request to the protocol's :meth:`~ReplicaBase.order`), the primary's
proposal (:meth:`ReplicaBase.propose`), filling a slot
(:meth:`ReplicaBase.fill_slot`), the commit entry
(:meth:`ReplicaBase.finalize`), replying, the checkpoint cut, message and
vote rule (:meth:`ReplicaBase.count_checkpoint_vote`), and the no-op request
a new view puts into a sequence hole (:func:`noop_request`).  Concrete
protocols (SeeMoRe, Paxos, PBFT, S-UpRight) subclass it, and each wires
its phases the one way, :meth:`ReplicaBase.install_agreement`: an agreement
declares the message classes it handles and the method for each.  A
replica keeps no table of the requests it has seen: a slot holds its
payload until checkpoint GC, and a retransmission is answered from the
reply cache.  Until checkpoint GC it keeps each request's assigned
sequence, per client, so a retransmission still being ordered is not
ordered twice.

Catch-up is written here once too: a replica that falls behind (its commits
run more than a checkpoint period ahead of execution, or a new view starts
above it) fetches a checkpointed snapshot, and each protocol says only how
many matching responses it adopts (:meth:`ReplicaBase.state_transfer_quorum`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from functools import partial
from hashlib import sha256

from repro.adaptive.evidence import EvidenceKind, EvidenceLog
from repro.crypto.digest import digest_of
from repro.crypto.signatures import Signer, Verifier, WindowVerifier
from repro.net.node import Node
from repro.smr.checkpointing import CheckpointManager, signed_state_digest
from repro.smr.executor import ExecutionResult, OrderedExecutor
from repro.smr.ledger import CommitLedger, LedgerEntry
from repro.smr.messages import (
    Checkpoint,
    Reply,
    Request,
    StateTransferRequest,
    StateTransferResponse,
    requests_of,
)
from repro.smr.slots import Slot, SlotLog
from repro.smr.state_machine import Operation, StateMachine, result_digest
from repro.wire.primitives import encode_reply

#: Client id of the no-op requests that fill sequence holes; never replied to.
NOOP_CLIENT = "__noop__"


def request_digest(request) -> str:
    """Canonical digest of a slot payload (``D(µ)``): a request or a batch.

    Delegates to the content-addressed cache, so each payload object is
    canonicalized and hashed once — not once per replica per hop.
    """
    return digest_of(request)


def noop_request(sequence: int) -> Request:
    """The special no-op command filled into sequence holes (Section 5.1)."""
    return Request(
        operation=Operation("noop"), timestamp=sequence, client_id=NOOP_CLIENT, signed=False
    )


class ReplicaBase(Node):
    """Base class for every protocol replica.

    Subclasses derive their roles in the current view (:meth:`install_roles`),
    order a request (:meth:`order`), create ``view_changes`` (the shared
    :class:`~repro.smr.view_change.ViewChangeManager`) and install their
    agreement's phase handlers with :meth:`install_agreement`; this class
    owns the request intake, execution, replies, checkpoint votes, state
    transfer and safety records.
    """

    #: The mode id this replica's replies and checkpoints carry (a baseline has one: 0).
    mode_id = 0
    #: The roles of the current view, set by :meth:`install_roles`: the primary,
    #: the proxies (a baseline and Lion have none) and whether this replica is one.
    _primary = ""
    _proxies: frozenset = frozenset()
    _is_proxy = False
    #: The installed agreement's quorums, set with the roles: matching votes
    #: (the replica's own included) that prepare a slot, or commit it in the
    #: leader agreement, and matching commits that commit a slot in PBFT's.
    quorum = 0
    commit_quorum = 0
    #: The stateless agreement whose phase handlers are installed.
    agreement: Any = None
    #: Checkpoint votes and local cuts, in a protocol that certifies checkpoints.
    checkpoints: Optional[CheckpointManager] = None

    def __init__(
        self,
        node_id: str,
        runtime: Any,
        replicas: Sequence[str],
        signer: Signer,
        verifier: Verifier,
        state_machine: StateMachine,
    ) -> None:
        if node_id not in replicas:
            raise ValueError(f"replica {node_id!r} is not part of the configuration")
        super().__init__(node_id, runtime)
        # The group is fixed for a run, and every multicast reads this list.
        self._other_replicas = [replica for replica in replicas if replica != node_id]
        self.signer = signer
        self.verifier = verifier
        # Batch-amortized front for the verifier: rolling per-sender
        # transcript MACs with per-message fallback (see WindowVerifier).
        self.window_verifier = WindowVerifier(verifier)
        self.executor = OrderedExecutor(state_machine)
        self.ledger = CommitLedger(node_id)
        self.slots = SlotLog()
        self.view = 0
        self.in_view_change = False
        self.next_sequence = 1
        self._handlers: Dict[Type, Callable[[str, Any], None]] = {
            Request: self.on_request,
            StateTransferRequest: self._on_state_transfer_request,
            StateTransferResponse: self._on_state_transfer_response,
        }
        self.replies_sent = 0
        # client_id -> {timestamp: assigned sequence}, above the stable checkpoint.
        self._assigned: Dict[str, Dict[int, int]] = {}
        # Runtime fault evidence this replica observed (timeouts, conflicting
        # votes, invalid signatures...); consumed by the adaptive controller.
        self.evidence = EvidenceLog(node_id, self.runtime)
        # Catch-up: the commit that last triggered a request, when, and the
        # responders per (checkpoint sequence, state digest).
        self._catchup_target = 0
        self._catchup_requested_at = -1.0
        self._catchup_votes: Dict[Tuple[int, str], set] = {}
        self.state_transfers_completed = 0

    # -- dispatch -----------------------------------------------------------

    def register_handler(self, message_type: Type, handler: Callable[[str, Any], None]) -> None:
        """Route messages of ``message_type`` to ``handler(src, message)``."""
        self._handlers[message_type] = handler

    def install_agreement(self, agreement: Any) -> None:
        """Route each phase message class ``agreement.handlers`` names to its method,
        bound to this replica, in place of the previously installed agreement's.

        A phase message no installed agreement handles reaches
        :meth:`on_unhandled_message`.
        """
        handlers = self._handlers
        if self.agreement is not None:
            for message_type in self.agreement.handlers:
                handlers.pop(message_type, None)
        for message_type, name in agreement.handlers.items():
            handlers[message_type] = partial(getattr(agreement, name), self)
        self.agreement = agreement

    def handle_message(self, src: str, payload: Any) -> None:
        handler = self._handlers.get(type(payload))
        if handler is None:
            self.on_unhandled_message(src, payload)
            return
        handler(src, payload)

    def on_unhandled_message(self, src: str, payload: Any) -> None:
        """Hook for unexpected message types; default is to ignore them."""

    def verify_message(self, src: str, message: Any) -> bool:
        """Verify a signed message from ``src``, flagging forgeries as evidence.

        A verification failure on a message that names its signer is proof
        the channel peer tampered with it (channels are authenticated, so
        ``src`` attribution stands); the record feeds the adaptive
        controller's Byzantine accounting.  Goes through the window
        verifier's amortized path, which returns exactly the per-message
        verdicts, so the evidence emitted here is unchanged from
        per-message verification.
        """
        if self.window_verifier.verify(src, message):
            return True
        self.evidence.record(
            EvidenceKind.INVALID_SIGNATURE, suspect=src, detail=type(message).__name__
        )
        return False

    # -- roles and requests ----------------------------------------------------

    def install_roles(self) -> None:
        """Derive this replica's roles and quorums in its current view (and mode)
        from its configuration.

        Called whenever either changes — at construction, by SeeMoRe's
        ``set_mode`` and where the view change installs a view — so the
        per-message role checks below and the agreements' quorum checks read
        attributes.
        """
        raise NotImplementedError

    def current_primary(self) -> str:
        """Who orders requests in the current view."""
        return self._primary

    def is_primary(self) -> bool:
        return not self.in_view_change and self._primary == self.node_id

    def is_proxy(self) -> bool:
        """Whether this replica is one of the current view's proxies."""
        return self._is_proxy

    def other_replicas(self) -> List[str]:
        """Every replica of the group but this one; callers treat the list as read-only."""
        return self._other_replicas

    def is_current_proxy(self, node_id: str) -> bool:
        """Whether ``node_id`` is one of the current view's proxies."""
        return node_id in self._proxies

    def valid_view(self, view: int) -> bool:
        return view == self.view and not self.in_view_change

    def accepts_ordering_from(self, src: str, view: int, mode: int) -> bool:
        """Whether an ordering message (prepare / pre-prepare / primary commit)
        from ``src`` for ``view`` in ``mode`` should be processed right now."""
        return (
            view == self.view
            and not self.in_view_change
            and mode == self.mode_id
            and src == self._primary
        )

    def on_request(self, src: str, request: Request) -> None:
        """The one request intake: a client's request, a retransmission or a forward.

        A backup forwards a request to the primary it believes is current and
        arms its request timer, so a dead primary is eventually suspected.
        """
        if self.resend_cached_reply(request, self.mode_id):
            return
        if not self.request_is_valid(request):
            return
        if not self.is_primary():
            primary = self._primary
            if primary != self.node_id:
                self.send(primary, request)
            self.view_changes.start_request_timer()
            return
        if not self.already_assigned(request):
            self.order(request)

    def order(self, request: Request) -> None:
        """Primary: start ordering a fresh ``request`` whose client signature verified."""
        raise NotImplementedError

    def propose(self, agreement: Any, sequence: int, payload: Any) -> None:
        """Primary: multicast ``agreement``'s ordering message for ``payload`` at ``sequence``,
        signed iff the message is, and count the primary's own vote."""
        digest = request_digest(payload)
        message = agreement.ordering_message(self, sequence, digest, payload)
        if message.signed:
            message.sign(self.signer)
        slot = self.fill_slot(sequence, digest, payload, message)
        agreement.record_proposal_vote(self, slot, digest)
        self.multicast(self.other_replicas(), message)

    def bump_sequence_counter(self, value: int) -> None:
        """Never hand out a sequence below ``value`` or one already executed."""
        self.next_sequence = max(self.next_sequence, value, self.last_executed + 1)

    def request_is_valid(self, request: Request) -> bool:
        """Validate the client's signature on a request.

        A request that was already executed is still "valid" — the caller
        decides whether to re-reply from the cache.  No evidence is emitted
        here: an invalid client signature on a relayed request does not
        incriminate the relaying channel peer.
        """
        return self.window_verifier.verify(request.client_id, request)

    def fill_slot(
        self, sequence: int, digest: str, request: Request, ordering: Any, force: bool = False
    ) -> Slot:
        """Fill in a slot's payload, digest and ordering message; first writer wins.

        With ``force=True`` an *uncommitted* slot holding a different digest
        is emptied first (votes included): a new view's certified entries,
        or a trusted primary's assignment, supersede whatever this replica
        tentatively accepted from a deposed or equivocating primary.

        The requests of ``request`` are recorded as holding ``sequence`` on
        every path that fills a slot, new-view re-proposals included (they
        run after ``clear_assignments``): otherwise a retransmission reaching
        a new primary while its re-proposed slot is still uncommitted would
        be ordered a second time.
        """
        slot = self.slots.slot(sequence)
        if force and not slot.committed and slot.digest is not None and slot.digest != digest:
            slot.digest = None
            slot.request = None
            slot.ordering_message = None
            slot.votes.clear()
        if slot.digest is None:
            slot.digest = digest
        if slot.request is None:
            slot.request = request
        if ordering is not None and slot.ordering_message is None:
            slot.ordering_message = ordering
        slot.view = self.view
        self.slots.track(slot)
        self.record_assignment(request, sequence)
        return slot

    # -- sequence assignments -------------------------------------------------

    def record_assignment(self, payload: Any, sequence: int) -> None:
        """Record that every request in the slot payload ``payload`` holds ``sequence``."""
        assigned = self._assigned
        for request in requests_of(payload):
            table = assigned.get(request.client_id)
            if table is None:
                table = assigned[request.client_id] = {}
            table[request.timestamp] = sequence

    def already_assigned(self, request: Request) -> bool:
        return request.timestamp in self._assigned.get(request.client_id, ())

    def clear_assignments(self) -> None:
        self._assigned.clear()

    def prune_assignments(self, watermark: int) -> None:
        """Forget assignments at or below ``watermark``, where slots are garbage collected.

        Without this the table grows with every request ever ordered; a
        retransmission of a pruned request is answered from the reply cache.
        """
        self._assigned = {
            client_id: kept
            for client_id, table in self._assigned.items()
            if (kept := {timestamp: seq for timestamp, seq in table.items() if seq > watermark})
        }

    # -- execution and replies ------------------------------------------------

    def finalize(self, slot: Slot, send_reply: bool) -> None:
        """The one commit entry: commit ``slot`` once, then the protocol's
        :meth:`_after_commit`, then the request timer.  Nobody replies to a no-op."""
        request = slot.request
        if request is None or slot.committed:
            return
        reply = send_reply and request.client_id != NOOP_CLIENT
        executions = self.commit_slot(slot.sequence, request, self.view, reply, self.mode_id)
        self._after_commit(slot.sequence, executions)
        self._maybe_request_catchup(slot.sequence)
        self.view_changes.update_request_timer()

    def _after_commit(self, sequence: int, executions: List[ExecutionResult]) -> None:
        """What the protocol does once committing ``sequence`` executed ``executions``."""

    def commit_slot(
        self,
        sequence: int,
        request: Request,
        view: int,
        send_reply: bool,
        mode_id: int = 0,
    ) -> List[ExecutionResult]:
        """Record a commit and execute whatever became ready.

        Args:
            sequence: the committed sequence number.
            request: the slot payload committed in that slot — one client
                request or a batch of them.
            view: the view in which the commit happened (for the ledger).
            send_reply: whether this replica should reply to the client for
                executions performed now (primaries/proxies do, passive
                replicas do not).  Each client gets one reply per executed
                slot, answering all of its requests in that slot.
            mode_id: protocol mode identifier carried in replies.

        Returns:
            The executions performed as a result of this commit.
        """
        entries = [
            (each.client_id, each.timestamp, each.operation) for each in requests_of(request)
        ]
        self.ledger.record(
            LedgerEntry(
                sequence=sequence,
                digest=request_digest(request),
                view=view,
                client_id=request.client_id,
                timestamp=request.timestamp,
            )
        )
        slot = self.slots.slot(sequence)
        slot.committed = True
        self.slots.track(slot)
        executions = self.executor.commit_batch(sequence, entries, owned=True)
        # All executions of one drained sequence share their slot, so the
        # slot probe is hoisted out of the per-request loop; replies are
        # gathered per client over one slot and sent when the slot is done.
        marked_sequence = None
        answered: Dict[str, Dict[int, Any]] = {}
        for execution in executions:
            executed_sequence, client_id, timestamp, result = execution
            if executed_sequence != marked_sequence:
                if answered:
                    self._send_replies(answered, mode_id)
                    answered = {}
                marked_sequence = executed_sequence
                executed_slot = self.slots.existing_slot(executed_sequence)
                if executed_slot is not None:
                    executed_slot.executed = True
                    # Nothing reads an executed payload's frames again but a
                    # view change, state transfer or full re-send, which rebuild.
                    if executed_slot.request is not None:
                        executed_slot.request.release_wire_frames()
            if send_reply:
                results = answered.get(client_id)
                if results is None:
                    answered[client_id] = {timestamp: result}
                else:
                    results[timestamp] = result
        if answered:
            self._send_replies(answered, mode_id)
        return executions

    def _send_replies(self, answered: Dict[str, Dict[int, Any]], mode_id: int) -> None:
        """One reply per client, answering its requests of one executed slot in order."""
        for client_id, results in answered.items():
            entries = iter(results.items())
            timestamp, result = next(entries)
            self.send_reply(client_id, timestamp, result, mode_id, tuple(entries))

    def send_reply(
        self,
        client_id: str,
        timestamp: int,
        result: Any,
        mode_id: int = 0,
        more: Tuple[Tuple[int, Any], ...] = (),
    ) -> None:
        """Send a signed reply to the client; ``more`` are further ``(timestamp, result)`` entries.

        Fused hot path: one reply goes out per client per executed slot per
        replying replica, so the wire frame, content digest, wire size, and
        signature are built in a single pass here and seeded into the
        message — exactly the values ``sign()``/``wire_slice()`` would
        compute lazily, without the intermediate frames.
        """
        digest_of_result = result_digest(result)
        more_digests = [(each, result_digest(outcome)) for each, outcome in more]
        frame = encode_reply(
            mode_id, self.view, timestamp, client_id, self.node_id, digest_of_result, more_digests
        )
        content_digest = sha256(frame).hexdigest()
        reply = Reply(
            mode=mode_id,
            view=self.view,
            timestamp=timestamp,
            client_id=client_id,
            replica_id=self.node_id,
            result=result,
            more=more,
            signature=self.signer.sign_digest(content_digest),
        )
        reply.seed_wire_caches(frame, content_digest, reply.wire_size(), digest_of_result)
        self.replies_sent += 1
        self.send(client_id, reply)

    def resend_cached_reply(self, request: Request, mode_id: int = 0) -> bool:
        """Reply from the executor's cache if the request was already executed.

        Returns ``True`` when the request had executed (whatever its result,
        ``None`` included) and its reply was re-sent.
        """
        replies = self.executor.replies_to(request.client_id)
        if request.timestamp not in replies:
            return False
        self.send_reply(request.client_id, request.timestamp, replies[request.timestamp], mode_id)
        return True

    # -- checkpoints ----------------------------------------------------------

    def cut_checkpoint(self, sequence: int) -> str:
        """Keep the executor's cut at boundary ``sequence``; return the digest a checkpoint signs.

        Called from the executor's checkpoint hook, which fires mid-drain, so
        the digest is of the state at the boundary even when one commit fills
        a gap and several buffered sequences execute at once: every correct
        replica signs the same one whatever order its slots committed in.
        """
        cut = self.executor.cut()
        state_digest = signed_state_digest(cut.next_sequence, cut.state)
        self.checkpoints.record_local_checkpoint(sequence, state_digest, cut)
        return state_digest

    def checkpoint_quorum(self, voter: str, mode: int) -> int:
        """Matching checkpoints that make one stable, if ``voter``'s (sent in ``mode``)
        counts at all; else 0."""
        raise NotImplementedError

    def send_checkpoint(self, sequence: int, state_digest: str) -> None:
        """Sign and multicast this replica's checkpoint, then count it as its own vote."""
        checkpoint = Checkpoint(
            sequence=sequence, state_digest=state_digest, replica_id=self.node_id, mode=self.mode_id
        )
        checkpoint.sign(self.signer)
        self.multicast(self.other_replicas(), checkpoint)
        quorum = self.checkpoint_quorum(self.node_id, self.mode_id)
        self.count_checkpoint_vote(sequence, state_digest, self.node_id, quorum)

    def on_checkpoint(self, src: str, message: Checkpoint) -> None:
        """A peer's checkpoint counts under its channel sender, if the protocol counts it."""
        if not self.verify_message(src, message) or message.replica_id != src:
            return
        quorum = self.checkpoint_quorum(src, message.mode)
        if quorum:
            self.count_checkpoint_vote(message.sequence, message.state_digest, src, quorum)

    def count_checkpoint_vote(
        self, sequence: int, state_digest: str, voter: str, quorum: int
    ) -> None:
        """Count ``voter``'s checkpoint; ``quorum`` matching ones make it stable.

        A checkpoint that becomes stable garbage-collects the slots, buffered
        commits and sequence assignments at or below it.
        """
        checkpoints = self.checkpoints
        if checkpoints.record_vote(sequence, state_digest, voter) < quorum:
            return
        if not checkpoints.mark_stable(sequence, state_digest):
            return
        self.slots.collect_below(sequence)
        self.executor.discard_below(sequence)
        self.prune_assignments(sequence)
        self._after_stable_checkpoint()

    def _after_stable_checkpoint(self) -> None:
        """What the protocol does once a checkpoint became stable."""

    # -- state transfer (catch-up for lagging replicas) --------------------------

    def state_transfer_quorum(self, src: str) -> int:
        """Matching state-transfer responses that must agree when ``src`` is one of them."""
        raise NotImplementedError

    def _maybe_request_catchup(self, committed_sequence: int) -> None:
        """Fetch a snapshot from peers when the commit frontier runs far ahead.

        A replica that missed commits (it was down, or a view change left it
        short of a quorum) keeps committing new sequence numbers while its
        executor is stuck at a gap; once that backlog exceeds a checkpoint
        period, waiting longer will not help (the missing messages are
        gone), so it asks its peers for a checkpointed snapshot.
        """
        backlog = committed_sequence - self.last_executed
        if backlog <= self.config.checkpoint_period:
            return
        recently_asked = (
            self._catchup_requested_at >= 0
            and self.now - self._catchup_requested_at < 10 * self.config.request_timeout
            and self.last_executed < self._catchup_target
        )
        if recently_asked:
            return
        self._catchup_target = committed_sequence
        self._catchup_requested_at = self.now
        self._catchup_votes.clear()
        self.request_state_transfer(None)

    def catch_up_to_view(self, collector: str, checkpoint_sequence: int) -> None:
        """A new view from ``collector`` starts at ``checkpoint_sequence``; fetch it if behind.

        The collector alone is asked when its response is enough by itself,
        every other replica otherwise.
        """
        if checkpoint_sequence <= self.last_executed or collector == self.node_id:
            return
        alone = self.state_transfer_quorum(collector) == 1
        self.request_state_transfer(collector if alone else None)

    def request_state_transfer(self, target: Optional[str]) -> None:
        """Ask ``target`` (or every other replica) for a checkpointed snapshot."""
        request = StateTransferRequest(replica_id=self.node_id, known_sequence=self.last_executed)
        if target is None:
            self.multicast(self.other_replicas(), request)
        else:
            self.send(target, request)

    def _on_state_transfer_request(self, src: str, message: StateTransferRequest) -> None:
        if message.known_sequence >= self.last_executed:
            return
        # Prefer the latest local checkpoint snapshot: it sits on a period
        # boundary, so caught-up replicas produce byte-identical snapshots
        # and the requester can cross-check their responses.
        checkpoint_sequence, snapshot = 0, None
        if self.checkpoints is not None:
            checkpoint_sequence, snapshot = self.checkpoints.latest_snapshot()
        if snapshot is None or checkpoint_sequence <= message.known_sequence:
            checkpoint_sequence, snapshot = self.last_executed, self.executor.snapshot()
        response = StateTransferResponse(
            replica_id=self.node_id,
            checkpoint_sequence=checkpoint_sequence,
            state_digest=signed_state_digest(snapshot["next_sequence"], snapshot["state"]),
            snapshot=snapshot,
        )
        response.sign(self.signer)
        self.send(src, response)

    def _on_state_transfer_response(self, src: str, message: StateTransferResponse) -> None:
        if not self.verify_message(src, message):
            return
        if not self._snapshot_is_what_was_signed(message):
            # The snapshot rides beside the signed frame; one that is not the
            # state the frame names was swapped in by the channel peer.
            self.evidence.record(
                EvidenceKind.INVALID_SIGNATURE, suspect=src, detail="StateTransferResponse snapshot"
            )
            return
        if message.checkpoint_sequence <= self.last_executed:
            return
        key = (message.checkpoint_sequence, message.state_digest)
        checkpoints = self.checkpoints
        if checkpoints is None or key != (checkpoints.stable_sequence, checkpoints.stable_digest):
            voters = self._catchup_votes.setdefault(key, set())
            voters.add(src)
            if len(voters) < self.state_transfer_quorum(src):
                return
        self._adopt_snapshot(message.snapshot)

    @staticmethod
    def _snapshot_is_what_was_signed(message: StateTransferResponse) -> bool:
        """Whether the unsigned snapshot is the state ``message``'s signed fields name.

        Only ``checkpoint_sequence`` and ``state_digest`` are signed, and
        every trust decision is made on them, so the snapshot must digest to
        exactly what ``_on_state_transfer_request`` signed.  Anything may
        come off the wire in its place: a wrong shape is a mismatch.
        """
        snapshot = message.snapshot
        try:
            next_sequence, state = snapshot["next_sequence"], snapshot["state"]
            return (
                next_sequence - 1 == message.checkpoint_sequence
                and signed_state_digest(next_sequence, state) == message.state_digest
                and isinstance(snapshot["replies"], dict)
                and all(type(key) is tuple and len(key) == 2 for key in snapshot["replies"])
            )
        except (KeyError, TypeError, ValueError):
            return False

    def _adopt_snapshot(self, snapshot: Dict[str, Any]) -> None:
        self.executor.restore(snapshot)
        self.slots.collect_below(self.executor.last_executed)
        self.bump_sequence_counter(self.executor.next_sequence)
        self._catchup_votes.clear()
        self.state_transfers_completed += 1
        self._after_state_transfer()
        self.view_changes.update_request_timer()

    def _after_state_transfer(self) -> None:
        """What the protocol does once a snapshot moved execution forward."""

    # -- introspection ---------------------------------------------------------

    @property
    def last_executed(self) -> int:
        return self.executor.last_executed

    @property
    def committed_count(self) -> int:
        return len(self.ledger)

    def state_summary(self) -> Dict[str, Any]:
        """Small status dict used by tests and examples."""
        summary = {
            "replica": self.node_id,
            "view": self.view,
            "last_executed": self.last_executed,
            "committed": self.committed_count,
            "crashed": self.crashed,
            "is_primary": not self.crashed and self.is_primary(),
            "view_changes": self.view_changes.view_changes_completed,
        }
        if self.checkpoints is not None:
            summary["stable_checkpoint"] = self.checkpoints.stable_sequence
        return summary
