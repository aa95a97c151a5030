"""Common replica machinery shared by SeeMoRe and the baseline protocols.

:class:`ReplicaBase` couples a network node with the SMR substrate: an
ordered executor over a state machine, a commit ledger for safety checking,
a slot log, crypto material, and exactly-once replies from the executor's
reply cache.  What every agreement engine does the same way is written here
once: filling a slot (:meth:`ReplicaBase.fill_slot`), committing it
(:meth:`ReplicaBase.commit_slot`), replying, and the no-op request a new
view puts into a sequence hole (:func:`noop_request`).  Concrete protocols
(SeeMoRe's three modes, Paxos, PBFT, S-UpRight) subclass it and register
handlers for their message types.  A replica keeps no table of the requests
it has seen: a slot holds its payload until checkpoint GC, and a
retransmission is answered from the reply cache.  Until checkpoint GC it
keeps each request's assigned sequence, per client, so a retransmission
still being ordered is not ordered twice.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple, Type

from hashlib import sha256

from repro.adaptive.evidence import EvidenceKind, EvidenceLog
from repro.crypto.digest import digest_of
from repro.crypto.signatures import Signer, Verifier, WindowVerifier
from repro.net.node import Node
from repro.smr.executor import ExecutionResult, OrderedExecutor
from repro.smr.ledger import CommitLedger, LedgerEntry
from repro.smr.messages import Reply, Request, requests_of
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

    Subclasses register message handlers with :meth:`register_handler` and
    drive ordering; this class owns execution, replies, and safety records.
    """

    def __init__(
        self,
        node_id: str,
        runtime: Any,
        signer: Signer,
        verifier: Verifier,
        state_machine: StateMachine,
    ) -> None:
        super().__init__(node_id, runtime)
        self.signer = signer
        self.verifier = verifier
        # Batch-amortized front for the verifier: rolling per-sender
        # transcript MACs with per-message fallback (see WindowVerifier).
        self.window_verifier = WindowVerifier(verifier)
        self.executor = OrderedExecutor(state_machine)
        self.ledger = CommitLedger(node_id)
        self.slots = SlotLog()
        self.view = 0
        self._handlers: Dict[Type, Callable[[str, Any], None]] = {}
        self.replies_sent = 0
        # client_id -> {timestamp: assigned sequence}, above the stable checkpoint.
        self._assigned: Dict[str, Dict[int, int]] = {}
        # Runtime fault evidence this replica observed (timeouts, conflicting
        # votes, invalid signatures...); consumed by the adaptive controller.
        self.evidence = EvidenceLog(node_id, self.runtime)

    # -- dispatch -----------------------------------------------------------

    def register_handler(self, message_type: Type, handler: Callable[[str, Any], None]) -> None:
        """Route messages of ``message_type`` to ``handler(src, message)``."""
        self._handlers[message_type] = handler

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

    # -- requests and slots ----------------------------------------------------

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

    # -- introspection ---------------------------------------------------------

    @property
    def last_executed(self) -> int:
        return self.executor.last_executed

    @property
    def committed_count(self) -> int:
        return len(self.ledger)

    def state_summary(self) -> Dict[str, Any]:
        """Small status dict used by tests and examples."""
        return {
            "replica": self.node_id,
            "view": self.view,
            "last_executed": self.last_executed,
            "committed": self.committed_count,
            "crashed": self.crashed,
        }
