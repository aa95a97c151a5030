"""The one place a replica group gets wired: protocol table + ``wire_group``.

Section 6 of the paper compares Lion, Dog, Peacock, CFT, BFT and S-UpRight
stood up *identically*; here that is literal.  :data:`PROTOCOLS` has one
:class:`ProtocolRow` per protocol — how to size its config, which replica
class runs it, which replicas sit in the private cloud, how its clients are
configured and which keystore namespace it signs under — and
:func:`wire_group` turns (row, per-group settings) into keyed, registered
replicas on *any* :class:`~repro.runtime.api.Runtime`.  It knows nothing of
simulators, sockets or processes, so the sim builders, the proc workers and
the conformance legs all call this same function and differ only in the
runtime they hand it.

This module is the only code under ``src/repro`` that constructs a
``KeyStore`` or a replica; ``tests/test_runtime_boundaries.py`` enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines import (
    PaxosConfig,
    PaxosReplica,
    PBFTConfig,
    QuorumBFTReplica,
    UpRightConfig,
    paxos_client_config,
    pbft_client_config,
    upright_client_config,
)
from repro.core import (
    AdmissionPolicy,
    BatchPolicy,
    Mode,
    SeeMoReConfig,
    SeeMoReReplica,
    client_config_for_mode,
)
from repro.crypto.keys import KeyStore
from repro.net.topology import Cloud, Placement
from repro.runtime.api import Runtime
from repro.smr.client import ClientConfig
from repro.smr.ledger import CommitLedger, find_safety_violations
from repro.smr.replica import ReplicaBase
from repro.workload.generator import Workload
from repro.workload.metrics import MetricsCollector


@dataclass(frozen=True)
class ShardSpec:
    """The settings of one replica group, on every backend.

    Every group sizes and runs its own agreement: a shard whose replicas
    sit behind a hardened private cloud can run Lion while a shard placed
    on rented public machines runs Dog or Peacock, exactly as the paper's
    planner would size each cluster for its own trust mix.  A single
    cluster is one such group, and a plain picklable value is what a proc
    worker needs to wire its slice.  ``mode``, ``batch_policy`` and
    ``admission`` (primary-side admission control) are honoured by the
    SeeMoRe row alone.
    """

    mode: Mode = Mode.LION
    crash_tolerance: int = 1
    byzantine_tolerance: int = 1
    checkpoint_period: int = 128
    request_timeout: float = 0.02
    batch_policy: Optional[BatchPolicy] = None
    admission: Optional[AdmissionPolicy] = None


@dataclass(frozen=True)
class ProtocolRow:
    """Everything that distinguishes one protocol's cluster from another's.

    ``make_config(settings, prefix)`` sizes the group (its
    ``replica_ids(config)`` are in identifier order);
    ``private_count(config, settings)`` says how many of them live in the
    private cloud, the rest being public; ``client_config(config,
    request_timeout=)`` configures its clients.  ``mode_aware`` marks the
    protocol that runs in one of the three SeeMoRe modes: its replicas and
    its client config additionally take the group's mode.
    """

    name: str
    namespace: str
    replica_class: type
    make_config: Callable[[ShardSpec, str], Any]
    layout: Callable[[Any, ShardSpec], Tuple[Sequence[str], Sequence[str]]]
    client_config: Callable[..., ClientConfig]
    mode_aware: bool = False


def _timers(settings: ShardSpec) -> Dict[str, Any]:
    return {
        "checkpoint_period": settings.checkpoint_period,
        "request_timeout": settings.request_timeout,
    }


#: The paper sizes CFT and BFT for the same *total* failures as SeeMoRe, so
#: both add the two tolerances; UpRight does not localise fault types and
#: only mimics the 2c-private layout, which matters once the cross-cloud
#: latency is raised.
_ROWS = (
    ProtocolRow(
        name="seemore",
        namespace="seemore",
        replica_class=SeeMoReReplica,
        make_config=lambda s, prefix: SeeMoReConfig.build(
            s.crash_tolerance,
            s.byzantine_tolerance,
            name_prefix=prefix,
            batch_policy=s.batch_policy or BatchPolicy(),
            admission=s.admission,
            **_timers(s),
        ),
        layout=lambda config, s: (config.private_replicas, config.public_replicas),
        client_config=client_config_for_mode,
        mode_aware=True,
    ),
    ProtocolRow(
        name="cft",
        namespace="paxos",
        replica_class=PaxosReplica,
        make_config=lambda s, prefix: PaxosConfig.build(
            s.crash_tolerance + s.byzantine_tolerance, prefix=f"{prefix}cft", **_timers(s)
        ),
        layout=lambda config, s: (config.replicas, ()),
        client_config=paxos_client_config,
    ),
    ProtocolRow(
        name="bft",
        namespace="pbft",
        replica_class=QuorumBFTReplica,
        make_config=lambda s, prefix: PBFTConfig.build(
            s.crash_tolerance + s.byzantine_tolerance, prefix=f"{prefix}bft", **_timers(s)
        ),
        layout=lambda config, s: ((), config.replicas),
        client_config=pbft_client_config,
    ),
    ProtocolRow(
        name="s-upright",
        namespace="upright",
        replica_class=QuorumBFTReplica,
        make_config=lambda s, prefix: UpRightConfig.build(
            s.crash_tolerance, s.byzantine_tolerance, prefix=f"{prefix}upright", **_timers(s)
        ),
        layout=lambda config, s: (
            config.replicas[: 2 * s.crash_tolerance],
            config.replicas[2 * s.crash_tolerance :],
        ),
        client_config=upright_client_config,
    ),
)
PROTOCOLS: Dict[str, ProtocolRow] = {row.name: row for row in _ROWS}


@dataclass
class Group:
    """One wired replica group: the typed record everything per-group hangs on.

    A deployment holds one of these per shard (a single cluster is one
    group) and numbers them: ``index`` is the group's position in
    ``Deployment.shards``.  ``mode`` is the mode the group *started* in
    (``None`` for a protocol that has no modes); ``metrics`` records the
    requests this group served on its own — for a single unrouted group it
    is the deployment's collector itself.
    """

    label: str  # the protocol name reports use: ``cft`` … or ``seemore-<mode>``
    config: Any
    mode: Optional[Mode]
    replicas: Dict[str, ReplicaBase]  # the members instantiated on this runtime
    client_config: Callable[[float], ClientConfig]  # request timeout -> its clients' config
    index: int = 0
    metrics: MetricsCollector = field(default_factory=MetricsCollector)
    #: Replicas an experiment made faulty (crashed or Byzantine); excluded
    #: from safety checks, and kept there after a recovery.
    faulty_replicas: set = field(default_factory=set)
    adaptive: Optional[Any] = None  # its AdaptiveModeController, when one is wired
    # Per-replica count of batch sizes already pulled into the metrics, so
    # collect_batch_sizes() can be called once per phase without re-counting.
    _batch_sizes_collected: Dict[str, int] = field(default_factory=dict)

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

    def safety_violations(self) -> List:
        """Conflicting commits among correct replicas (must always be empty)."""
        return find_safety_violations(self.correct_ledgers())

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


def new_keystore(namespace: str, seed: Any) -> KeyStore:
    """The key material of one deployment.

    Seeded, so stores built independently from the same ``(namespace, seed)``
    — one per proc worker — agree on every key and cross-process signature
    verification just works.
    """
    return KeyStore(seed=f"{namespace}-{seed}")


def wire_group(
    runtime: Runtime,
    keystore: KeyStore,
    protocol: str,
    settings: ShardSpec,
    workload: Workload,
    prefix: str = "",
    placement: Optional[Placement] = None,
    only: Optional[Sequence[str]] = None,
) -> Group:
    """Place, key, instantiate and register one replica group on ``runtime``.

    ``prefix`` namespaces the replica ids so several groups (shards) share
    one runtime, placement and keystore.  Keys are registered for *every*
    member; ``only`` restricts which members are instantiated here (a proc
    worker hosts a slice of the group, the client worker none of it).
    """
    row = PROTOCOLS[protocol]
    config = row.make_config(settings, prefix)
    private, public = row.layout(config, settings)
    replica_ids = (*private, *public)
    if placement is not None:
        placement.assign_many(private, Cloud.PRIVATE)
        placement.assign_many(public, Cloud.PUBLIC)
    for replica_id in replica_ids:
        keystore.register(replica_id)
    verifier = keystore.verifier()

    # Only the mode-aware protocol's label, replicas and client config take a mode.
    label, mode, initial_mode = row.name, (), {}
    if row.mode_aware:
        label = f"{row.name}-{settings.mode.name.lower()}"
        mode, initial_mode = (settings.mode,), {"initial_mode": settings.mode}

    state_machine_factory = workload.state_machine_factory()
    replicas: Dict[str, ReplicaBase] = {}
    for replica_id in replica_ids if only is None else only:
        replica = row.replica_class(
            node_id=replica_id,
            runtime=runtime,
            config=config,
            signer=keystore.signer_for(replica_id),
            verifier=verifier,
            state_machine=state_machine_factory(),
            **initial_mode,
        )
        runtime.register(replica)
        replicas[replica_id] = replica
    return Group(
        label,
        config,
        settings.mode if row.mode_aware else None,
        replicas,
        lambda timeout: row.client_config(config, *mode, request_timeout=timeout),
    )
