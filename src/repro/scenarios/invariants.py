"""Continuously checked invariants for fault scenarios.

Each checker implements a small protocol:

* :meth:`attach` is called once, before the clients start (a checker may
  instrument deployment objects here);
* :meth:`check` is called periodically on the simulator clock while the
  scenario runs, so a violation is caught close to the moment it happens;
* :meth:`finalize` is called once after the run settles.

All methods return a list of human-readable violation strings (empty when
the invariant holds).  The four standard checkers cover the paper's safety
claims, each judged *per replica group* — every group of a deployment is
its own replicated state machine, so state is keyed by group and a
violation names its shard when there are several:

* committed prefixes never fork across correct replicas
  (:class:`CommittedPrefixAgreement`);
* no correct client accepts a reply that no correct replica of the group
  owning the request produced (:class:`NoForgedReplies`);
* each request id executes to exactly one result, agreed on by every
  correct replica that executed it (:class:`ExactlyOnceExecution`);
* stable checkpoint digests agree across correct replicas
  (:class:`CheckpointAgreement`).

So :func:`default_checkers` is right for every deployment; one whose
clients are routed is additionally held to the two-phase protocol's
contract across groups: no shard commits a transaction another shard
aborted (:class:`CrossShardAtomicity`).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, DefaultDict, Dict, List, Tuple

from repro.cluster.deployment import Deployment
from repro.cluster.wiring import Group


def _where(deployment: Deployment, group: Group) -> str:
    """How a violation names its group: nothing for a single cluster."""
    return f"shard {group.index}: " if len(deployment.shards) > 1 else ""


class InvariantChecker:
    """Base class; subclasses override any of the three hooks."""

    name = "invariant"

    def attach(self, deployment: Deployment) -> None:
        """Instrument the deployment before clients start."""

    def check(self, deployment: Deployment) -> List[str]:
        """Periodic mid-run check; return violation descriptions."""
        return []

    def finalize(self, deployment: Deployment) -> List[str]:
        """End-of-run check; return violation descriptions."""
        return self.check(deployment)


class CommittedPrefixAgreement(InvariantChecker):
    """Correct replicas never commit conflicting requests at one sequence.

    This is the paper's safety property (1), checked *during* the run (not
    only at the end) so a transient fork that a later state transfer would
    paper over is still caught.  The periodic check scans each append-only
    ledger incrementally (new entries only) against the first recorded
    digest per sequence; the final check additionally runs the full
    pairwise comparison as a belt-and-braces pass.
    """

    name = "committed-prefix-agreement"

    def __init__(self) -> None:
        self._offsets: Dict[str, int] = {}
        # group -> sequence -> (first replica to commit it while correct, digest)
        self._agreed: Dict[int, Dict[int, Tuple[str, str]]] = {}
        # Structural keys of reported conflicts (replica ids name the group),
        # so the final pairwise pass does not re-report a fork the incremental
        # scan already flagged with the replicas phrased in the opposite order.
        self._reported: set = set()
        self._violations: List[str] = []

    def _report(self, where, sequence, replica_a, digest_a, replica_b, digest_b) -> None:
        key = (sequence, frozenset({(replica_a, digest_a), (replica_b, digest_b)}))
        if key in self._reported:
            return
        self._reported.add(key)
        self._violations.append(
            f"{where}sequence {sequence}: {replica_a} committed {digest_a[:8]} "
            f"but {replica_b} committed {digest_b[:8]}"
        )

    def check(self, deployment: Deployment) -> List[str]:
        for group in deployment.shards:
            agreed = self._agreed.setdefault(group.index, {})
            for replica in group.correct_replicas():
                ledger = replica.ledger
                for entry in ledger.entries_since(self._offsets.get(replica.node_id, 0)):
                    seen = agreed.get(entry.sequence)
                    if seen is None:
                        agreed[entry.sequence] = (replica.node_id, entry.digest)
                    elif seen[1] != entry.digest and seen[0] != replica.node_id:
                        self._report(
                            _where(deployment, group),
                            entry.sequence,
                            replica.node_id,
                            entry.digest,
                            *seen,
                        )
                self._offsets[replica.node_id] = len(ledger)
        return list(self._violations)

    def finalize(self, deployment: Deployment) -> List[str]:
        self.check(deployment)
        for group in deployment.shards:
            for conflict in group.safety_violations():
                self._report(_where(deployment, group), *conflict)
        return list(self._violations)


class NoForgedReplies(InvariantChecker):
    """No correct client ever accepts a result forged by a Byzantine replica.

    The checker wraps every client's per-request completion to record the
    result accepted for each entry of a reply and which replica group owns
    the request (the shard it was routed to; for one cluster, the cluster).  Each
    accepted result is then verified against the reply caches of that
    group's correct replicas: one of them must have executed the request
    and produced exactly the accepted result.
    """

    name = "no-forged-replies"

    def __init__(self) -> None:
        # client_id -> timestamp -> (owning group index, accepted result).
        self._accepted: Dict[str, Dict[int, Tuple[int, Any]]] = {}
        self._violations: List[str] = []

    def attach(self, deployment: Deployment) -> None:
        for client in deployment.clients:
            self._instrument(client)
        # Clients spawned mid-run (a ClientSurge event) must be instrumented
        # too; wrap the pool's spawn to catch them.
        pool = deployment.client_pool
        original_spawn = pool.spawn

        def spawning(*args, **kwargs):
            created = original_spawn(*args, **kwargs)
            for client in created:
                self._instrument(client)
            return created

        pool.spawn = spawning  # type: ignore[method-assign]

    def _instrument(self, client) -> None:
        original_complete = client._complete
        accepted = self._accepted.setdefault(client.node_id, {})

        def completing(reply, pending, result, result_key):
            timestamp = pending.request.timestamp
            if timestamp in accepted and accepted[timestamp][1] != result:
                self._violations.append(
                    f"client {client.node_id} accepted two different results "
                    f"for timestamp {timestamp}"
                )
            accepted[timestamp] = (pending.session.index, result)
            original_complete(reply, pending, result, result_key)

        client._complete = completing  # type: ignore[method-assign]

    def finalize(self, deployment: Deployment) -> List[str]:
        violations = list(self._violations)
        groups = deployment.shards
        correct = [group.correct_replicas() for group in groups]
        for client_id, accepted_by_timestamp in sorted(self._accepted.items()):
            for timestamp, (group, accepted) in sorted(accepted_by_timestamp.items()):
                tables = [replica.executor.replies_to(client_id) for replica in correct[group]]
                executed = [table[timestamp] for table in tables if timestamp in table]
                owner = f" of shard {group}" if len(groups) > 1 else ""
                if not executed:
                    violations.append(
                        f"client {client_id} accepted a reply for timestamp {timestamp} "
                        f"that no correct replica{owner} ever executed"
                    )
                elif not any(result == accepted for result in executed):
                    violations.append(
                        f"client {client_id} accepted a forged result for timestamp "
                        f"{timestamp}: no correct replica{owner} produced it"
                    )
        return violations


class ExactlyOnceExecution(InvariantChecker):
    """Each request id maps to exactly one result, everywhere.

    Re-proposals across view changes may legitimately re-*commit* a request
    in a second slot, but the executor must serve the duplicate from its
    reply cache: on any single correct replica all executions of one
    ``(client, timestamp)`` must carry the same result, and all correct
    replicas must agree on that result.
    """

    name = "exactly-once-execution"

    def __init__(self) -> None:
        # Incremental scan state, so the periodic check only pays for
        # executions performed since the previous sample.
        self._offsets: Dict[str, int] = {}
        # Per group: a client's timestamps are its own, whichever group serves them.
        # group -> client -> timestamp -> (first replica seen executing it, result).
        # Every later execution, on that replica or another, must match it.
        self._agreed: Dict[int, DefaultDict[str, Dict[int, Tuple[str, Any]]]] = {}
        self._violations: List[str] = []

    def check(self, deployment: Deployment) -> List[str]:
        for group in deployment.shards:
            where = _where(deployment, group)
            agreed = self._agreed.setdefault(group.index, defaultdict(dict))
            for replica in group.correct_replicas():
                node_id = replica.node_id
                executed = replica.executor.executed
                start = self._offsets.get(node_id, 0)
                for _, client_id, timestamp, result in executed[start:]:
                    firsts = agreed[client_id]
                    seen = firsts.get(timestamp)
                    if seen is None:
                        firsts[timestamp] = (node_id, result)
                    elif seen[1] != result:
                        if seen[0] == node_id:
                            self._violations.append(
                                f"{where}{node_id} executed {(client_id, timestamp)} twice "
                                f"with different results (duplicate not served from the "
                                f"reply cache)"
                            )
                        else:
                            self._violations.append(
                                f"{where}{node_id} and {seen[0]} disagree on the "
                                f"result of {(client_id, timestamp)}"
                            )
                self._offsets[node_id] = len(executed)
        return list(self._violations)


class CheckpointAgreement(InvariantChecker):
    """Stable checkpoints at the same sequence have the same state digest.

    The checker samples every correct replica's stable checkpoint each
    period and accumulates a history, so replicas that stabilise the same
    sequence at different times are still compared.
    """

    name = "checkpoint-agreement"

    def __init__(self) -> None:
        # (group, sequence) -> (replica that set it, digest)
        self._seen: Dict[Tuple[int, int], Tuple[str, str]] = {}
        self._violations: List[str] = []

    def check(self, deployment: Deployment) -> List[str]:
        for group in deployment.shards:
            for replica in group.correct_replicas():
                checkpoints = getattr(replica, "checkpoints", None)
                if checkpoints is None or checkpoints.stable_sequence == 0:
                    continue
                sequence = checkpoints.stable_sequence
                state_digest = checkpoints.stable_digest
                seen = self._seen.setdefault(
                    (group.index, sequence), (replica.node_id, state_digest)
                )
                if seen[1] != state_digest:
                    message = (
                        f"{_where(deployment, group)}checkpoint at sequence {sequence}: "
                        f"{replica.node_id} has digest {state_digest[:8]} but "
                        f"{seen[0]} has {seen[1][:8]}"
                    )
                    if message not in self._violations:
                        self._violations.append(message)
        return list(self._violations)


def default_checkers() -> List[InvariantChecker]:
    """A fresh instance of every standard checker."""
    return [
        CommittedPrefixAgreement(),
        NoForgedReplies(),
        ExactlyOnceExecution(),
        CheckpointAgreement(),
    ]


class CrossShardAtomicity(InvariantChecker):
    """No shard commits a cross-shard transaction another shard aborted.

    Checked continuously — a transient split-decision that some later
    repair would paper over is still caught at the sample closest to the
    moment it happened.
    """

    name = "cross-shard-atomicity"

    def check(self, deployment: Deployment) -> List[str]:
        return deployment.atomicity_violations()


__all__ = [
    "InvariantChecker",
    "CommittedPrefixAgreement",
    "NoForgedReplies",
    "ExactlyOnceExecution",
    "CheckpointAgreement",
    "default_checkers",
    "CrossShardAtomicity",
]
