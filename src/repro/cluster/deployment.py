"""A fully wired simulated deployment: one fabric, one or more replica groups.

A deployment is a set of replica groups (:class:`~repro.cluster.wiring.Group`)
on one simulated fabric, driven by one client pool; a single cluster is the
one-group case, not a second type.  What is per group — config, initial
mode, replicas, faulty set, ledgers, its own metrics recorder, its adaptive
controller — lives on the ``Group``; what is shared lives here once.

The aggregate safety story is layered:

* *per-group safety* — every group must uphold the single-cluster
  guarantees (no forked commits among its correct replicas), checked on
  each group's own ledgers;
* *cross-shard atomicity* — no group may commit a transaction that another
  group aborted: the decisions recorded by correct replicas' transactional
  state machines must agree per transaction across every group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster.wiring import Group
from repro.crypto.keys import KeyStore
from repro.net.network import Network
from repro.net.topology import Placement
from repro.runtime.api import Runtime
from repro.shard.partition import Partitioner
from repro.shard.router import ShardRouter
from repro.sim.simulator import Simulator
from repro.smr.replica import ReplicaBase
from repro.workload.client_pool import ClientPool
from repro.workload.metrics import MetricsCollector


@dataclass
class Deployment:
    """Everything needed to run one experiment.

    Attributes:
        protocol: human-readable protocol name (``"seemore-lion"``, ``"pbft"``,
            ``"seemore-sharded-2x"``...).
        runtime: the runtime facade the nodes were built against.
        simulator / network: the discrete-event simulator behind ``runtime``
            (read for its event count; time, timers and runs come from
            ``runtime``) and the message fabric (its conditions and counters).
        placement: cloud placement of every node.
        keystore: key material for all nodes.
        shards: the replica groups, in shard order; a single cluster is
            ``(group,)``.  Each group's ``index`` is its position here.
        client_pool: the clients driving load (routed when ``router`` is set).
        metrics: the completion collector every client records into.
        router: maps an operation's keys to the owning shard(s); ``None``
            exactly when the clients are unrouted (one group, whole keyspace).
        replicas: every group's replicas in one dict (ids are disjoint across
            groups); membership is fixed, so it is merged once.
    """

    protocol: str
    runtime: Runtime
    simulator: Simulator
    network: Network
    placement: Placement
    keystore: KeyStore
    shards: Tuple[Group, ...]
    client_pool: ClientPool
    metrics: MetricsCollector
    router: Optional[ShardRouter] = None
    replicas: Dict[str, ReplicaBase] = field(init=False)

    def __post_init__(self) -> None:
        self.replicas = {}
        for index, group in enumerate(self.shards):
            group.index = index
            self.replicas.update(group.replicas)

    # -- groups and replicas ---------------------------------------------------

    @property
    def partitioner(self) -> Optional[Partitioner]:
        return None if self.router is None else self.router.partitioner

    def group(self, shard: Optional[int] = None) -> Group:
        """The group at index ``shard``, or the only group when none is named."""
        count = len(self.shards)
        if shard is None:
            if count != 1:
                raise ValueError(f"{self.protocol} has {count} groups; name one: group(shard)")
            shard = 0
        if not 0 <= shard < count:
            raise ValueError(f"{self.protocol} has {count} group(s); there is no shard {shard}")
        return self.shards[shard]

    def replica(self, replica_id: str) -> ReplicaBase:
        return self.replicas[replica_id]

    def correct_replicas(self) -> List[ReplicaBase]:
        """Every group's replicas that are neither crashed nor designated faulty."""
        return [replica for group in self.shards for replica in group.correct_replicas()]

    @property
    def faulty_replicas(self) -> set:
        return set().union(*(group.faulty_replicas for group in self.shards))

    def mark_faulty(self, replica_id: str) -> None:
        """Record a replica as faulty with the group that owns it."""
        for group in self.shards:
            if replica_id in group.replicas:
                return group.mark_faulty(replica_id)
        raise KeyError(f"unknown replica: {replica_id!r}")

    # -- clients ---------------------------------------------------------------

    @property
    def clients(self) -> List:
        return self.client_pool.clients

    def add_clients(self, count: int, window: Optional[int] = None, start: bool = True) -> List:
        """Spawn ``count`` extra closed-loop clients, optionally mid-run.

        New clients register with the network and keystore like the
        originals (the shared verifier sees late registrations, mirroring a
        PKI) and are routed like them, so load can be ramped while the
        deployment is running.
        """
        created = self.client_pool.spawn(count, window=window)
        if start:
            for client in created:
                client.start()
        return created

    def start_clients(self) -> None:
        self.client_pool.start_all()

    def stop_clients(self) -> None:
        self.client_pool.stop_all()

    def run(self, duration: float) -> bool:
        """Serve ``duration`` of the runtime's seconds (see ``Runtime.run``)."""
        return self.runtime.run(timeout=duration)

    # -- invariants --------------------------------------------------------------

    def safety_violations(self) -> List:
        """Conflicting commits among each group's correct replicas (must be empty)."""
        return [violation for group in self.shards for violation in group.safety_violations()]

    def atomicity_violations(self) -> List[str]:
        """Cross-shard transactions decided differently on different shards.

        Scans the transaction decisions recorded by every correct replica's
        state machine; a transaction id carrying both a commit and an abort
        anywhere among correct replicas is the violation the two-phase
        protocol must never produce.
        """
        outcomes: Dict[str, Dict[str, Tuple[int, str]]] = {}
        for group in self.shards:
            for replica in group.correct_replicas():
                decisions = getattr(replica.executor.state_machine, "txn_decisions", None)
                if not decisions:
                    continue
                for txn_id, outcome in decisions.items():
                    outcomes.setdefault(txn_id, {}).setdefault(
                        outcome, (group.index, replica.node_id)
                    )
        violations = []
        for txn_id, seen in sorted(outcomes.items()):
            if "commit" in seen and "abort" in seen:
                commit_shard, commit_replica = seen["commit"]
                abort_shard, abort_replica = seen["abort"]
                violations.append(
                    f"transaction {txn_id}: shard {commit_shard} ({commit_replica}) "
                    f"committed but shard {abort_shard} ({abort_replica}) aborted"
                )
        return violations

    def assert_safe(self) -> None:
        violations = self.safety_violations()
        if violations:
            raise AssertionError(
                f"{self.protocol}: safety violated in {len(violations)} slot(s); "
                f"first conflict: {violations[0]}"
            )
        atomicity = self.atomicity_violations()
        if atomicity:
            raise AssertionError(
                f"{self.protocol}: cross-shard atomicity violated for "
                f"{len(atomicity)} transaction(s); first: {atomicity[0]}"
            )

    # -- telemetry ----------------------------------------------------------------

    def per_shard_completed(self) -> List[int]:
        return [group.metrics.completed for group in self.shards]

    def transaction_stats(self) -> Dict[str, int]:
        """Aggregate 2PC coordinator counters over every (routed) client."""
        totals = {"started": 0, "committed": 0, "aborted": 0}
        for client in self.clients if self.router is not None else ():
            for key, value in client.coordinator.stats.as_dict().items():
                totals[key] += value
        return totals

    def collect_batch_sizes(self) -> None:
        for group in self.shards:
            group.collect_batch_sizes()
