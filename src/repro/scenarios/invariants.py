"""Continuously checked invariants for fault scenarios.

Each checker implements a small protocol:

* :meth:`attach` is called once, before the clients start (a checker may
  instrument deployment objects here);
* :meth:`check` is called periodically on the simulator clock while the
  scenario runs, so a violation is caught close to the moment it happens;
* :meth:`finalize` is called once after the run settles.

All methods return a list of human-readable violation strings (empty when
the invariant holds).  The four standard checkers cover the paper's safety
claims:

* committed prefixes never fork across correct replicas
  (:class:`CommittedPrefixAgreement`);
* no correct client accepts a reply that no correct replica of the group
  owning the request produced (:class:`NoForgedReplies`);
* each request id executes to exactly one result, agreed on by every
  correct replica that executed it (:class:`ExactlyOnceExecution`);
* stable checkpoint digests agree across correct replicas
  (:class:`CheckpointAgreement`).

A sharded deployment is held to the same four on every shard
(:class:`PerShardInvariants`) and to the two-phase protocol's contract
across them: no shard commits a transaction another shard aborted
(:class:`CrossShardAtomicity`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.cluster.deployment import ClientDriven, Deployment
from repro.shard.deployment import ShardedDeployment
from repro.smr.ledger import find_safety_violations


class InvariantChecker:
    """Base class; subclasses override any of the three hooks.

    The deployment is whatever the scenario built: one cluster or a
    sharded deployment (:class:`PerShardInvariants` and
    :class:`CrossShardAtomicity` only make sense on the latter).
    """

    name = "invariant"

    def attach(self, deployment: ClientDriven) -> None:
        """Instrument the deployment before clients start."""

    def check(self, deployment: ClientDriven) -> List[str]:
        """Periodic mid-run check; return violation descriptions."""
        return []

    def finalize(self, deployment: ClientDriven) -> List[str]:
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
        # sequence -> (first replica to commit it while correct, digest)
        self._agreed: Dict[int, Tuple[str, str]] = {}
        # Structural keys of reported conflicts, so the final pairwise pass
        # does not re-report a fork the incremental scan already flagged
        # with the replicas phrased in the opposite order.
        self._reported: set = set()
        self._violations: List[str] = []

    def _report(self, sequence, replica_a, digest_a, replica_b, digest_b) -> None:
        key = (sequence, frozenset({(replica_a, digest_a), (replica_b, digest_b)}))
        if key in self._reported:
            return
        self._reported.add(key)
        self._violations.append(
            f"sequence {sequence}: {replica_a} committed {digest_a[:8]} "
            f"but {replica_b} committed {digest_b[:8]}"
        )

    def check(self, deployment: Deployment) -> List[str]:
        for replica in deployment.correct_replicas():
            ledger = replica.ledger
            for entry in ledger.entries_since(self._offsets.get(replica.node_id, 0)):
                seen = self._agreed.get(entry.sequence)
                if seen is None:
                    self._agreed[entry.sequence] = (replica.node_id, entry.digest)
                elif seen[1] != entry.digest and seen[0] != replica.node_id:
                    self._report(
                        entry.sequence, replica.node_id, entry.digest, seen[0], seen[1]
                    )
            self._offsets[replica.node_id] = len(ledger)
        return list(self._violations)

    def finalize(self, deployment: Deployment) -> List[str]:
        self.check(deployment)
        for sequence, replica_a, digest_a, replica_b, digest_b in find_safety_violations(
            deployment.correct_ledgers()
        ):
            self._report(sequence, replica_a, digest_a, replica_b, digest_b)
        return list(self._violations)


class NoForgedReplies(InvariantChecker):
    """No correct client ever accepts a result forged by a Byzantine replica.

    The checker wraps every client's completion path to record the result
    each accepted reply carried and which replica group owns the request
    (the shard it was routed to; for one cluster, the cluster).  Each
    accepted result is then verified against the reply caches of that
    group's correct replicas: one of them must have executed the request
    and produced exactly the accepted result.
    """

    name = "no-forged-replies"

    def __init__(self) -> None:
        # (client_id, timestamp) -> (owning group index, accepted result).
        self._accepted: Dict[Tuple[str, int], Tuple[int, Any]] = {}
        self._violations: List[str] = []

    def attach(self, deployment: ClientDriven) -> None:
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

        def completing(reply, pending):
            timestamp = pending.request.timestamp
            key = (client.node_id, timestamp)
            if key in self._accepted and self._accepted[key][1] != reply.result:
                self._violations.append(
                    f"client {client.node_id} accepted two different results "
                    f"for timestamp {timestamp}"
                )
            self._accepted[key] = (pending.session.index, reply.result)
            original_complete(reply, pending)

        client._complete = completing  # type: ignore[method-assign]

    def finalize(self, deployment: ClientDriven) -> List[str]:
        violations = list(self._violations)
        groups = getattr(deployment, "shards", None) or [deployment]
        correct = [group.correct_replicas() for group in groups]
        for (client_id, timestamp), (group, accepted) in sorted(self._accepted.items()):
            executed = [
                replica.executor.cached_reply(client_id, timestamp)
                for replica in correct[group]
                if replica.executor.already_executed(client_id, timestamp)
            ]
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
        self._local: Dict[str, Dict[Tuple[str, int], Any]] = {}
        self._agreed: Dict[Tuple[str, int], Tuple[str, Any]] = {}
        self._violations: List[str] = []

    def check(self, deployment: Deployment) -> List[str]:
        for replica in deployment.correct_replicas():
            executed = replica.executor.executed
            local = self._local.setdefault(replica.node_id, {})
            for execution in executed[self._offsets.get(replica.node_id, 0):]:
                key = (execution.client_id, execution.timestamp)
                if key in local and local[key] != execution.result:
                    self._violations.append(
                        f"{replica.node_id} executed {key} twice with different "
                        f"results (duplicate not served from the reply cache)"
                    )
                local[key] = execution.result
                seen = self._agreed.get(key)
                if seen is None:
                    self._agreed[key] = (replica.node_id, execution.result)
                elif seen[1] != execution.result and seen[0] != replica.node_id:
                    self._violations.append(
                        f"{replica.node_id} and {seen[0]} disagree on the result of {key}"
                    )
            self._offsets[replica.node_id] = len(executed)
        return list(self._violations)


class CheckpointAgreement(InvariantChecker):
    """Stable checkpoints at the same sequence have the same state digest.

    The checker samples every correct replica's stable checkpoint each
    period and accumulates a history, so replicas that stabilise the same
    sequence at different times are still compared.
    """

    name = "checkpoint-agreement"

    def __init__(self) -> None:
        # sequence -> (replica that set it, digest)
        self._seen: Dict[int, Tuple[str, str]] = {}
        self._violations: List[str] = []

    def check(self, deployment: Deployment) -> List[str]:
        for replica in deployment.correct_replicas():
            checkpoints = getattr(replica, "checkpoints", None)
            if checkpoints is None or checkpoints.stable_sequence == 0:
                continue
            sequence = checkpoints.stable_sequence
            state_digest = checkpoints.stable_digest
            seen = self._seen.get(sequence)
            if seen is None:
                self._seen[sequence] = (replica.node_id, state_digest)
            elif seen[1] != state_digest:
                message = (
                    f"checkpoint at sequence {sequence}: {replica.node_id} has digest "
                    f"{state_digest[:8]} but {seen[0]} has {seen[1][:8]}"
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


class PerShardInvariants(InvariantChecker):
    """Run the full single-cluster checker set independently on every shard.

    Committed-prefix agreement, exactly-once execution, and checkpoint
    agreement are all *per-shard* properties — each shard is its own
    replicated state machine — so each shard gets a fresh checker set and
    violations are reported with the shard index.
    """

    name = "per-shard-invariants"

    def __init__(self, checker_factory=default_checkers) -> None:
        self._checker_factory = checker_factory
        self._checkers: Dict[int, List[InvariantChecker]] = {}

    def attach(self, deployment: ShardedDeployment) -> None:
        for index, shard in enumerate(deployment.shards):
            self._checkers[index] = list(self._checker_factory())
            for checker in self._checkers[index]:
                checker.attach(shard)

    def _collect(self, deployment: ShardedDeployment, hook: Callable) -> List[str]:
        return [
            f"shard {index} [{checker.name}] {violation}"
            for index, shard in enumerate(deployment.shards)
            for checker in self._checkers.get(index, ())
            for violation in hook(checker, shard)
        ]

    def check(self, deployment: ShardedDeployment) -> List[str]:
        return self._collect(deployment, lambda checker, shard: checker.check(shard))

    def finalize(self, deployment: ShardedDeployment) -> List[str]:
        return self._collect(deployment, lambda checker, shard: checker.finalize(shard))


class CrossShardAtomicity(InvariantChecker):
    """No shard commits a cross-shard transaction another shard aborted.

    Checked continuously — a transient split-decision that some later
    repair would paper over is still caught at the sample closest to the
    moment it happened.
    """

    name = "cross-shard-atomicity"

    def check(self, deployment: ShardedDeployment) -> List[str]:
        return deployment.atomicity_violations()


__all__ = [
    "InvariantChecker",
    "CommittedPrefixAgreement",
    "NoForgedReplies",
    "ExactlyOnceExecution",
    "CheckpointAgreement",
    "default_checkers",
    "PerShardInvariants",
    "CrossShardAtomicity",
]
