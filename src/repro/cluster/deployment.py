"""A fully wired simulated deployment of one replication protocol."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.crypto.keys import KeyStore
from repro.net.network import Network
from repro.net.topology import Placement
from repro.runtime.api import Runtime
from repro.sim.simulator import Simulator
from repro.smr.ledger import CommitLedger, find_safety_violations
from repro.smr.replica import ReplicaBase
from repro.workload.client_pool import ClientPool
from repro.workload.metrics import MetricsCollector


class ClientDriven:
    """The lifecycle single-cluster and sharded deployments share.

    Both kinds carry a ``simulator``, a ``metrics`` collector and a
    ``client_pool`` (closed-loop clients, routed through the partitioner in
    the sharded case), so runners and scenario engines drive them alike.
    """

    @property
    def clients(self) -> List:
        return self.client_pool.clients

    def total_completed(self) -> int:
        return self.metrics.completed

    def add_clients(self, count: int, window: Optional[int] = None, start: bool = True) -> List:
        """Spawn ``count`` extra closed-loop clients, optionally mid-run.

        New clients register with the network and keystore like the
        originals (the shared verifier sees late registrations, mirroring a
        PKI), so load can be ramped while the deployment is running.
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

    def run(self, duration: float) -> float:
        """Advance simulated time by ``duration`` seconds."""
        return self.simulator.run(until=self.simulator.now + duration)


@dataclass
class Deployment(ClientDriven):
    """Everything needed to run one experiment.

    Attributes:
        protocol: human-readable protocol name (``"seemore-lion"``, ``"pbft"``...).
        simulator: the discrete-event simulator owning time.
        network: the message fabric connecting replicas and clients.
        placement: cloud placement of every node.
        keystore: key material for all nodes.
        replicas: replica id -> replica object.
        client_pool: the closed-loop clients driving load.
        metrics: shared completion collector.
        faulty_replicas: ids of replicas an experiment made faulty (crashed or
            Byzantine); excluded from safety checks.
        extras: protocol-specific configuration (e.g. the SeeMoRe config).
        runtime: the runtime facade the nodes were built against.  Builders
            always populate it; ``simulator``/``network`` stay as first-class
            fields because the scenario/adaptive/fault layers are sim-only
            tooling and reach into the discrete-event internals directly.
    """

    protocol: str
    simulator: Simulator
    network: Network
    placement: Placement
    keystore: KeyStore
    replicas: Dict[str, ReplicaBase]
    client_pool: ClientPool
    metrics: MetricsCollector
    faulty_replicas: set = field(default_factory=set)
    extras: Dict[str, Any] = field(default_factory=dict)
    runtime: Optional[Runtime] = None
    # Per-replica count of batch sizes already pulled into the metrics, so
    # collect_batch_sizes() can be called once per phase without re-counting.
    _batch_sizes_collected: Dict[str, int] = field(default_factory=dict)

    # -- convenience accessors -------------------------------------------------

    def replica(self, replica_id: str) -> ReplicaBase:
        return self.replicas[replica_id]

    def correct_replicas(self) -> List[ReplicaBase]:
        """Replicas that are neither crashed nor designated faulty."""
        return [
            replica
            for replica_id, replica in sorted(self.replicas.items())
            if replica_id not in self.faulty_replicas and not replica.crashed
        ]

    def correct_ledgers(self) -> List[CommitLedger]:
        return [replica.ledger for replica in self.correct_replicas()]

    def mark_faulty(self, replica_id: str) -> None:
        if replica_id not in self.replicas:
            raise KeyError(f"unknown replica: {replica_id!r}")
        self.faulty_replicas.add(replica_id)

    # -- invariants --------------------------------------------------------------

    def safety_violations(self) -> List:
        """Conflicting commits among correct replicas (must always be empty)."""
        return find_safety_violations(self.correct_ledgers())

    def assert_safe(self) -> None:
        violations = self.safety_violations()
        if violations:
            raise AssertionError(
                f"{self.protocol}: safety violated in {len(violations)} slot(s); "
                f"first conflict: {violations[0]}"
            )

    def collect_batch_sizes(self) -> None:
        """Pull proposed-batch-size telemetry from replicas into the metrics.

        Idempotent: repeated calls (e.g. once per experiment phase) record
        only the batches proposed since the previous collection.  Only
        replicas with a batcher (SeeMoRe) report.
        """
        for replica_id, replica in sorted(self.replicas.items()):
            if replica_id in self.faulty_replicas:
                continue
            batcher = getattr(replica, "batcher", None)
            if batcher is None:
                continue
            offset = self._batch_sizes_collected.get(replica_id, 0)
            sizes = batcher.proposed_batch_sizes
            self.metrics.record_batches(sizes[offset:])
            self._batch_sizes_collected[replica_id] = len(sizes)
