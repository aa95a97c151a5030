"""A sharded deployment: N independently configured SeeMoRe clusters.

Each shard is a complete single-cluster
:class:`~repro.cluster.deployment.Deployment` — its own
:class:`~repro.core.config.SeeMoReConfig` (mode, ``c``, ``m``, trust
layout), replicas, commit ledgers, and metrics collector — and all shards
share one simulator, one network fabric, one placement, and one keystore.
Clients route keyed operations through the
:class:`~repro.shard.router.ShardRouter` and coordinate cross-shard
transactions with the deterministic two-phase protocol.

The aggregate safety story is layered:

* *per-shard safety* — every shard must uphold the single-cluster
  guarantees (no forked commits among its correct replicas), checked by
  delegating to each shard's own ledger comparison;
* *cross-shard atomicity* — no shard may commit a transaction that another
  shard aborted: the decisions recorded by correct replicas' transactional
  state machines must agree per transaction across every shard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.deployment import ClientDriven, Deployment
from repro.core.batching import BatchPolicy
from repro.core.modes import Mode
from repro.crypto.keys import KeyStore
from repro.net.network import Network
from repro.net.topology import Placement
from repro.shard.client import ShardedClientPool
from repro.shard.partition import Partitioner
from repro.shard.router import ShardRouter
from repro.sim.simulator import Simulator
from repro.smr.replica import ReplicaBase
from repro.workload.metrics import MetricsCollector


@dataclass(frozen=True)
class ShardSpec:
    """Per-shard protocol configuration.

    Every shard sizes and runs its own agreement: a shard whose replicas
    sit behind a hardened private cloud can run Lion while a shard placed
    on rented public machines runs Dog or Peacock, exactly as the paper's
    planner would size each cluster for its own trust mix.

    Also the per-group settings :func:`repro.cluster.wiring.wire_group`
    takes on every backend: a single cluster is one such group, and a plain
    picklable value is what a proc worker needs to wire its slice.
    """

    mode: Mode = Mode.LION
    crash_tolerance: int = 1
    byzantine_tolerance: int = 1
    checkpoint_period: int = 128
    request_timeout: float = 0.02
    batch_policy: Optional[BatchPolicy] = None


@dataclass
class ShardedDeployment(ClientDriven):
    """Everything needed to run one sharded experiment.

    Shares the client lifecycle (``clients`` / ``add_clients`` /
    ``start_clients`` / ``stop_clients`` / ``run``) with the single-cluster
    :class:`~repro.cluster.deployment.Deployment` and mirrors the rest of
    the surface the runners rely on (``protocol`` / ``replicas`` /
    ``metrics`` / ``safety_violations``), so
    :func:`~repro.cluster.runner.run_deployment` drives both identically.
    Surged clients route through the deployment's partitioner like the
    originals; the per-shard pools refuse to spawn for exactly that reason.
    """

    protocol: str
    simulator: Simulator
    network: Network
    placement: Placement
    keystore: KeyStore
    shards: List[Deployment]
    specs: Tuple[ShardSpec, ...]
    partitioner: Partitioner
    router: ShardRouter
    client_pool: ShardedClientPool
    metrics: MetricsCollector
    extras: Dict[str, Any] = field(default_factory=dict)

    # -- composition accessors ---------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard(self, index: int) -> Deployment:
        return self.shards[index]

    @property
    def replicas(self) -> Dict[str, ReplicaBase]:
        """Every shard's replicas in one dict (ids are shard-prefixed, so disjoint)."""
        return {
            replica_id: replica
            for shard in self.shards
            for replica_id, replica in shard.replicas.items()
        }

    def all_node_ids(self) -> List[str]:
        """Every registered node id: replicas of every shard plus clients."""
        return list(self.replicas) + [client.node_id for client in self.clients]

    def correct_replicas(self) -> List[ReplicaBase]:
        return [replica for shard in self.shards for replica in shard.correct_replicas()]

    # -- invariants ---------------------------------------------------------

    def safety_violations(self) -> List:
        """Per-shard ledger conflicts, tagged with the shard index."""
        violations = []
        for index, shard in enumerate(self.shards):
            violations.extend((index,) + tuple(v) for v in shard.safety_violations())
        return violations

    def atomicity_violations(self) -> List[str]:
        """Cross-shard transactions decided differently on different shards.

        Scans the transaction decisions recorded by every correct replica's
        state machine; a transaction id carrying both a commit and an abort
        anywhere among correct replicas is the violation the two-phase
        protocol must never produce.
        """
        outcomes: Dict[str, Dict[str, Tuple[int, str]]] = {}
        for index, shard in enumerate(self.shards):
            for replica in shard.correct_replicas():
                decisions = getattr(replica.executor.state_machine, "txn_decisions", None)
                if not decisions:
                    continue
                for txn_id, outcome in decisions.items():
                    outcomes.setdefault(txn_id, {}).setdefault(
                        outcome, (index, replica.node_id)
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
                f"{self.protocol}: per-shard safety violated in {len(violations)} "
                f"slot(s); first conflict: {violations[0]}"
            )
        atomicity = self.atomicity_violations()
        if atomicity:
            raise AssertionError(
                f"{self.protocol}: cross-shard atomicity violated for "
                f"{len(atomicity)} transaction(s); first: {atomicity[0]}"
            )

    # -- telemetry ----------------------------------------------------------

    def per_shard_completed(self) -> List[int]:
        return [shard.metrics.completed for shard in self.shards]

    def adaptive_controllers(self) -> Tuple[Any, ...]:
        """The per-shard adaptive mode controllers (empty when not wired)."""
        return tuple(self.extras.get("adaptive", ()))

    def transaction_stats(self) -> Dict[str, int]:
        """Aggregate coordinator counters over every client."""
        totals = {"started": 0, "committed": 0, "aborted": 0}
        for client in self.clients:
            for key, value in client.coordinator.stats.as_dict().items():
                totals[key] += value
        return totals

    def collect_batch_sizes(self) -> None:
        for shard in self.shards:
            shard.collect_batch_sizes()

    # -- fault helpers -------------------------------------------------------

    def mark_faulty(self, shard_index: int, replica_id: str) -> None:
        self.shards[shard_index].mark_faulty(replica_id)
