"""Byzantine behaviour injection.

A Byzantine replica in the public cloud may do anything except forge other
replicas' signatures.  Rather than flagging replicas as "bad" and special-
casing them, these helpers rewire a live replica's *outgoing* behaviour so
it actually misbehaves on the wire; correct replicas and clients must then
survive through quorum intersection and signature verification, which is
what the fault-tolerance tests assert.

Available strategies:

* ``silent``   — the replica stops sending anything (Byzantine-crash);
* ``equivocate`` — a Byzantine primary proposes *different* requests to
  different subsets of replicas for the same sequence number;
* ``lie`` — the replica sends clients replies with a fabricated result;
* ``corrupt`` — the replica's signatures are garbage, so every correct
  receiver discards its messages.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict

from repro.cluster.wiring import Group
from repro.core import messages as core_msgs
from repro.crypto.signatures import Signature
from repro.smr.messages import Batch, Reply
from repro.smr.replica import ReplicaBase, request_digest
from repro.smr.state_machine import Operation
from repro.wire.codec import decode
from repro.wire.primitives import WireDecodeError


def make_silent(replica: ReplicaBase) -> None:
    """The replica stops sending protocol messages entirely."""

    def send_nothing(dst, payload):
        return None

    def multicast_nothing(destinations, payload):
        return None

    replica.send = send_nothing  # type: ignore[assignment]
    replica.multicast = multicast_nothing  # type: ignore[assignment]


def _decoded_twin(message):
    """Re-materialize a message from its own wire frame.

    Twists operate on these decoded forms and re-encode on the next
    ``signing_bytes()`` call, so every attack manipulates exactly what an
    adversary holding the frame could manipulate — the tampering stays
    wire-visible rather than being an artifact of shared in-memory
    objects.  The detached parts (the piggybacked ``request``) and the
    ``signature`` ride *beside* the signed frame, so they are re-attached
    from the original (a twist then replaces whichever of them it targets).
    Payloads without an invertible frame fall back to a plain copy.
    """
    try:
        twin = decode(message.wire_slice())
    except WireDecodeError:
        return copy.copy(message)
    twin.attach(iter(message.detached()))
    if twin.signed != message.signed:
        twin.signed = message.signed
    twin.signature = message.signature
    return twin


def tampered_request(request):
    """Decoded twin of one client request with its operation replaced by garbage."""
    twisted = _decoded_twin(request)
    twisted.operation = Operation(
        kind="put",
        args=("byzantine", "tampered"),
        payload=getattr(request.operation, "payload", ""),
    )
    return twisted


def tampered_payload(payload):
    """A conflicting slot payload: a request or a batch with one request twisted.

    The returned payload always hashes to a *different* digest than the
    original, so an ordering message built around it genuinely conflicts
    with the honest proposal.  For batches the tampering happens *inside* a
    copied batch (the batch digest covers every inner request), matching how
    a real Byzantine primary would equivocate under batching.
    """
    if isinstance(payload, Batch):
        requests = list(payload.requests)
        requests[0] = tampered_request(requests[0])
        return Batch(requests=requests)
    return tampered_request(payload)


#: The digest an equivocating replica's tampered *votes* claim to support.
#: Any fixed value that differs from every honest digest works: the point
#: is that the vote contradicts the slot's established assignment.
_EQUIVOCATED_VOTE_DIGEST = "ab" * 32


def make_equivocating(replica: ReplicaBase) -> None:
    """A Byzantine replica makes conflicting statements to different peers.

    Two faces of the same attack, so it is wire-visible in every mode:

    * *proposal equivocation* (when the replica is an untrusted primary) —
      ordering messages that carry a slot payload (SeeMoRe's ``Prepare``
      and ``PrePrepare``) are forked: half the destinations receive the
      honest proposal, half a *self-consistent* twisted copy whose digest
      is recomputed over the tampered payload and re-signed.  Receivers
      accept whichever proposal arrives first and detect the conflict by
      digest mismatch on the slot, refusing the second assignment; the
      slot stalls and a view change removes the equivocator.
    * *vote equivocation* (when the replica is a backup or proxy) — its
      agreement votes (``Accept`` / ``ProxyPrepare``) are forked the same
      way: half (or, on unicast paths like the Lion accept, every other
      vote) claim a digest that contradicts the assignment the replica
      actually received.  Honest quorums absorb the bad votes by digest
      matching, and receivers that already hold the trusted assignment can
      flag the contradiction as Byzantine evidence.

    Everything else is forwarded unchanged.
    """
    original_multicast = replica.multicast
    original_send = replica.send
    vote_parity = {"flip": False}

    def conflicting_copy(payload):
        twisted = _decoded_twin(payload)
        twisted.request = tampered_payload(payload.request)
        twisted.digest = request_digest(twisted.request)
        twisted.sign(replica.signer)
        return twisted

    def conflicting_vote(payload):
        twisted = _decoded_twin(payload)
        twisted.digest = _EQUIVOCATED_VOTE_DIGEST
        if getattr(twisted, "signed", False):
            twisted.sign(replica.signer)
        return twisted

    def equivocating_multicast(destinations, payload):
        if isinstance(payload, (core_msgs.Prepare, core_msgs.PrePrepare)) and getattr(
            payload, "request", None
        ) is not None:
            targets = [d for d in destinations if d != replica.node_id]
            half = len(targets) // 2
            original_multicast(targets[:half], payload)
            if targets[half:]:
                original_multicast(targets[half:], conflicting_copy(payload))
            return
        if isinstance(payload, (core_msgs.Accept, core_msgs.ProxyPrepare)):
            targets = [d for d in destinations if d != replica.node_id]
            half = len(targets) // 2
            original_multicast(targets[:half], payload)
            if targets[half:]:
                original_multicast(targets[half:], conflicting_vote(payload))
            return
        original_multicast(destinations, payload)

    def equivocating_send(dst, payload):
        if isinstance(payload, (core_msgs.Accept, core_msgs.ProxyPrepare)):
            vote_parity["flip"] = not vote_parity["flip"]
            if vote_parity["flip"]:
                original_send(dst, conflicting_vote(payload))
                return
        original_send(dst, payload)

    replica.multicast = equivocating_multicast  # type: ignore[assignment]
    replica.send = equivocating_send  # type: ignore[assignment]


def make_lying(replica: ReplicaBase) -> None:
    """The replica replies to clients with a fabricated result.

    The signature on the lie is the Byzantine replica's own (it cannot forge
    anyone else's), so clients relying on f+1 / 2m+1 matching replies are
    never fooled as long as the fault bound holds.  One reply answers every
    request of its client in an executed slot, so the lie replaces the
    result of every entry, the first and each of ``more``.
    """
    original_send = replica.send

    def lying_send(dst, payload):
        if isinstance(payload, Reply):
            lie = _decoded_twin(payload)
            forged = {"ok": False, "value": "forged-by-" + replica.node_id}
            lie.result = forged
            lie.more = tuple((timestamp, forged) for timestamp, _ in lie.more)
            lie.sign(replica.signer)
            original_send(dst, lie)
            return
        original_send(dst, payload)

    replica.send = lying_send  # type: ignore[assignment]


def make_corrupt_signatures(replica: ReplicaBase) -> None:
    """Every signed message the replica sends carries an invalid signature."""
    original_send = replica.send
    original_multicast = replica.multicast

    def corrupt(payload):
        if getattr(payload, "signed", False) and getattr(payload, "signature", None) is not None:
            twisted = _decoded_twin(payload)
            twisted.signature = Signature(
                signer_id=payload.signature.signer_id,
                payload_digest=payload.signature.payload_digest,
                tag="0" * 64,
            )
            return twisted
        return payload

    def corrupt_send(dst, payload):
        original_send(dst, corrupt(payload))

    def corrupt_multicast(dsts, payload):
        original_multicast(dsts, corrupt(payload))

    replica.send = corrupt_send  # type: ignore[assignment]
    replica.multicast = corrupt_multicast  # type: ignore[assignment]


BYZANTINE_STRATEGIES: Dict[str, Callable[[ReplicaBase], None]] = {
    "silent": make_silent,
    "equivocate": make_equivocating,
    "lie": make_lying,
    "corrupt": make_corrupt_signatures,
}


def make_byzantine(group: Group, replica_id: str, strategy: str = "silent") -> None:
    """Turn one replica Byzantine using a named strategy.

    Raises:
        ValueError: for unknown strategies or when the target replica is in
            the private cloud of a SeeMoRe deployment (the paper's model
            does not allow Byzantine behaviour there).
    """
    if strategy not in BYZANTINE_STRATEGIES:
        raise ValueError(
            f"unknown Byzantine strategy {strategy!r}; choose one of {sorted(BYZANTINE_STRATEGIES)}"
        )
    if replica_id in getattr(group.config, "private_replicas", ()):
        raise ValueError(
            f"replica {replica_id!r} is in the trusted private cloud; "
            "the hybrid model only admits Byzantine faults in the public cloud"
        )
    BYZANTINE_STRATEGIES[strategy](group.replica(replica_id))
    group.mark_faulty(replica_id)


def restore_honest(group: Group, replica_id: str) -> None:
    """Undo any Byzantine rewiring of one replica -- the attack subsides.

    Every strategy works by shadowing ``send``/``multicast`` with instance
    attributes, so restoring honest behaviour is dropping those shadows and
    falling back to the class implementations.  The replica *stays* in the
    group's faulty set for conservative safety accounting (it may have
    sent arbitrary garbage while twisted), exactly like a recovered crash;
    what changes is that it stops producing fresh evidence, which is what
    lets an adaptive controller de-escalate after a quiet period.
    """
    replica = group.replica(replica_id)
    replica.__dict__.pop("send", None)
    replica.__dict__.pop("multicast", None)
