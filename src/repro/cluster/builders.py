"""Deployment builders: one per protocol the paper evaluates.

Each builder stands up a complete simulated deployment -- replicas placed
into private/public clouds, the network with the requested latency profile,
key material, and a pool of closed-loop clients -- and returns a
:class:`~repro.cluster.deployment.Deployment` ready to run.

All builders accept the same experiment knobs so the benchmark harness can
sweep them uniformly:

* ``num_clients`` — closed-loop clients generating load;
* ``workload`` — one of the x/y micro-benchmarks or a key-value workload;
* ``seed`` — drives every random choice (latency jitter, workload keys);
* ``cross_cloud_latency`` — one-way latency between the two clouds
  (defaults to the intra-cloud latency, the paper's co-located setting).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.adaptive import AdaptiveModeController, AdaptivePolicy
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
from repro.cluster.deployment import Deployment
from repro.core import (
    AdmissionPolicy,
    BatchPolicy,
    Mode,
    SeeMoReConfig,
    SeeMoReReplica,
    client_config_for_mode,
)
from repro.crypto.keys import KeyStore
from repro.net.costs import NodeCostModel
from repro.net.latency import CloudAwareLatencyModel
from repro.net.network import Network
from repro.net.topology import Cloud, Placement
from repro.runtime.proc import ProcCluster, WorkerSpec
from repro.runtime.sim import SimRuntime
from repro.shard import (
    ShardedClientPool,
    ShardedDeployment,
    ShardRouter,
    ShardSession,
    ShardSpec,
    make_partitioner,
)
from repro.sim.simulator import Simulator
from repro.smr.client import ClientConfig
from repro.workload.client_pool import ClientPool
from repro.workload.generator import ShardedKeyValueWorkload, Workload, WorkloadSpec
from repro.workload.metrics import MetricsCollector

DEFAULT_INTRA_CLOUD_LATENCY = 0.0002
DEFAULT_CLIENT_LATENCY = 0.0003

#: What builders accept for their ``adaptive`` knob: ``True`` for the
#: default policy, an :class:`AdaptivePolicy` for tuned knobs, or
#: ``None``/``False`` for no controller.
AdaptiveSpec = Union[bool, AdaptivePolicy, None]


def _resolve_adaptive_policy(adaptive: AdaptiveSpec) -> Optional[AdaptivePolicy]:
    if not adaptive:
        return None
    if isinstance(adaptive, AdaptivePolicy):
        return adaptive
    return AdaptivePolicy()


def _build_fabric(
    placement: Placement,
    seed: int,
    cross_cloud_latency: Optional[float],
    cost_model: Optional[NodeCostModel],
) -> SimRuntime:
    simulator = Simulator()
    latency = CloudAwareLatencyModel(
        placement=placement,
        intra_cloud=DEFAULT_INTRA_CLOUD_LATENCY,
        cross_cloud=(
            cross_cloud_latency if cross_cloud_latency is not None else DEFAULT_INTRA_CLOUD_LATENCY
        ),
        client_link=DEFAULT_CLIENT_LATENCY,
    )
    network = Network(
        simulator,
        latency_model=latency,
        cost_model=cost_model or NodeCostModel(),
        seed=seed,
    )
    return SimRuntime(simulator, network)


def _finish_deployment(
    protocol: str,
    runtime: SimRuntime,
    placement: Placement,
    keystore: KeyStore,
    replicas: Dict,
    client_config: ClientConfig,
    workload: Workload,
    num_clients: int,
    extras: Optional[Dict] = None,
    client_window: Optional[int] = None,
) -> Deployment:
    metrics = MetricsCollector()
    pool = ClientPool(
        runtime=runtime,
        keystore=keystore,
        placement=placement,
        client_config=client_config,
        workload=workload,
        metrics=metrics,
    )
    # num_clients == 0 leaves the pool empty for open-loop deployments,
    # whose connections are spawned by ClientPool.spawn_open_loop instead.
    if num_clients > 0:
        pool.spawn(num_clients, window=client_window)
    return Deployment(
        protocol=protocol,
        simulator=runtime.simulator,
        network=runtime.network,
        placement=placement,
        keystore=keystore,
        replicas=replicas,
        client_pool=pool,
        metrics=metrics,
        extras=extras or {},
        runtime=runtime,
    )


# -- SeeMoRe ---------------------------------------------------------------------


def _spawn_seemore_cluster(
    config: SeeMoReConfig,
    mode: Mode,
    runtime: SimRuntime,
    keystore: KeyStore,
    placement: Placement,
    workload: Workload,
    cost_model: Optional[NodeCostModel],
) -> Dict[str, SeeMoReReplica]:
    """Place, key, and register one SeeMoRe replica group on a shared fabric.

    Shared by the single-cluster builder and the sharded builder: the
    latter calls it once per shard with shard-prefixed replica ids, so N
    independently configured clusters coexist on one runtime, placement,
    and keystore.
    """
    placement.assign_many(config.private_replicas, Cloud.PRIVATE)
    placement.assign_many(config.public_replicas, Cloud.PUBLIC)
    for replica_id in config.all_replicas:
        keystore.register(replica_id)
    verifier = keystore.verifier()

    state_machine_factory = workload.state_machine_factory()
    replicas: Dict[str, SeeMoReReplica] = {}
    for replica_id in config.all_replicas:
        replica = SeeMoReReplica(
            node_id=replica_id,
            runtime=runtime,
            config=config,
            signer=keystore.signer_for(replica_id),
            verifier=verifier,
            state_machine=state_machine_factory(),
            initial_mode=mode,
            cost_model=cost_model,
        )
        runtime.register(replica)
        replicas[replica_id] = replica
    return replicas


def build_seemore(
    crash_tolerance: int = 1,
    byzantine_tolerance: int = 1,
    mode: Mode = Mode.LION,
    workload: Optional[Workload] = None,
    num_clients: int = 1,
    seed: int = 0,
    cross_cloud_latency: Optional[float] = None,
    checkpoint_period: int = 128,
    request_timeout: float = 0.02,
    client_timeout: float = 0.2,
    cost_model: Optional[NodeCostModel] = None,
    batch_policy: Optional[BatchPolicy] = None,
    client_window: Optional[int] = None,
    adaptive: AdaptiveSpec = None,
    admission: Optional[AdmissionPolicy] = None,
) -> Deployment:
    """Build a SeeMoRe deployment in the given mode.

    Follows the paper's evaluation layout: ``2c`` replicas in the private
    cloud and ``3m+1`` in the public cloud (N = 3m+2c+1).

    ``batch_policy`` configures request batching/pipelining at the primary
    (default: one request per slot, the paper's setup) and ``client_window``
    pipelines that many requests per client (default: the workload's
    ``client_window``, normally the paper's closed loop of 1).

    ``adaptive`` attaches a closed-loop
    :class:`~repro.adaptive.AdaptiveModeController` (``True`` for the
    default policy, or an :class:`~repro.adaptive.AdaptivePolicy`); the
    controller is started on the simulator clock and exposed as
    ``deployment.extras["adaptive"]``.

    ``admission`` attaches primary-side admission control (see
    :class:`~repro.core.admission.AdmissionPolicy`): past the watermark the
    primary sheds new requests with a signed ``Busy`` instead of queueing
    them.  ``num_clients=0`` builds the deployment with an empty client
    pool so an open-loop driver can spawn its own connections.
    """
    workload = workload or Workload.build("0/0")
    config = SeeMoReConfig.build(
        crash_tolerance,
        byzantine_tolerance,
        checkpoint_period=checkpoint_period,
        request_timeout=request_timeout,
        batch_policy=batch_policy or BatchPolicy(),
        admission=admission,
    )
    placement = Placement()
    runtime = _build_fabric(placement, seed, cross_cloud_latency, cost_model)
    keystore = KeyStore(seed=f"seemore-{seed}")
    replicas = _spawn_seemore_cluster(
        config, mode, runtime, keystore, placement, workload, cost_model
    )

    client_config = client_config_for_mode(config, mode, request_timeout=client_timeout)
    deployment = _finish_deployment(
        protocol=f"seemore-{mode.name.lower()}",
        runtime=runtime,
        placement=placement,
        keystore=keystore,
        replicas=replicas,
        client_config=client_config,
        workload=workload,
        num_clients=num_clients,
        extras={"config": config, "mode": mode},
        client_window=client_window,
    )
    policy = _resolve_adaptive_policy(adaptive)
    if policy is not None:
        controller = AdaptiveModeController(deployment, policy=policy, name="adaptive")
        deployment.extras["adaptive"] = controller
        controller.start()
    return deployment


# -- sharded SeeMoRe --------------------------------------------------------------------


def _reject_per_shard_spawn(*args, **kwargs):
    raise RuntimeError(
        "per-shard pools of a sharded deployment cannot spawn clients: an "
        "unrouted client would send every key to one shard; spawn through "
        "ShardedDeployment.add_clients so operations are routed"
    )


def build_sharded_seemore(
    num_shards: int = 2,
    shard_specs: Optional[Sequence[ShardSpec]] = None,
    workload: Optional[Workload] = None,
    num_clients: int = 2,
    seed: int = 0,
    cross_cloud_latency: Optional[float] = None,
    partition_policy: str = "hash",
    range_boundaries: Optional[Sequence[str]] = None,
    crash_tolerance: int = 1,
    byzantine_tolerance: int = 1,
    mode: Mode = Mode.LION,
    checkpoint_period: int = 128,
    request_timeout: float = 0.02,
    client_timeout: float = 0.2,
    client_window: Optional[int] = None,
    txn_timeout: Optional[float] = None,
    batch_policy: Optional[BatchPolicy] = None,
    cost_model: Optional[NodeCostModel] = None,
    adaptive: AdaptiveSpec = None,
) -> ShardedDeployment:
    """Build N SeeMoRe clusters sharing one simulated fabric.

    ``shard_specs`` configures each shard individually (mode, ``c``, ``m``,
    checkpointing, batching); when omitted, ``num_shards`` uniform shards
    are built from the scalar knobs — the same defaults as
    :func:`build_seemore`, so a one-shard sharded deployment is directly
    comparable to a single cluster.

    The keyspace is split by ``partition_policy`` (``"hash"`` or
    ``"range"`` with explicit ``range_boundaries``).  The default workload
    is a sharded key-value mix with 10% cross-shard transactions; a
    :class:`~repro.workload.generator.ShardedKeyValueWorkload` passed
    without a partitioner is attached to the deployment's partitioner so
    its cross-shard transactions really span shards.

    ``txn_timeout`` bounds how long a client coordinator waits for
    prepare votes before aborting a cross-shard transaction (``None``
    waits indefinitely — classic blocking 2PC).

    ``adaptive`` attaches one
    :class:`~repro.adaptive.AdaptiveModeController` *per shard*: every
    shard estimates its own fault environment (evidence implicating other
    shards' replicas is filtered out) and switches its own mode, so
    divergent per-shard environments settle into divergent per-shard
    modes.  The controllers are exposed as
    ``deployment.extras["adaptive"]`` (a tuple, shard order) and on each
    shard's ``extras["adaptive"]``.
    """
    if shard_specs is not None:
        specs = tuple(shard_specs)
    else:
        specs = tuple(
            ShardSpec(
                mode=mode,
                crash_tolerance=crash_tolerance,
                byzantine_tolerance=byzantine_tolerance,
                checkpoint_period=checkpoint_period,
                request_timeout=request_timeout,
                batch_policy=batch_policy,
            )
            for _ in range(num_shards)
        )
    if not specs:
        raise ValueError("a sharded deployment needs at least one shard")

    partitioner = make_partitioner(partition_policy, len(specs), range_boundaries)
    router = ShardRouter(partitioner)

    if workload is None:
        workload = Workload.build(
            WorkloadSpec(kind="sharded-kv", seed=seed, partitioner=partitioner)
        )
    elif isinstance(workload, ShardedKeyValueWorkload) and workload.partitioner is None:
        workload = workload.with_partitioner(partitioner)

    placement = Placement()
    runtime = _build_fabric(placement, seed, cross_cloud_latency, cost_model)
    keystore = KeyStore(seed=f"seemore-sharded-{seed}")

    shards: List[Deployment] = []
    shard_configs: Dict[int, SeeMoReConfig] = {}
    shard_client_configs: Dict[int, ClientConfig] = {}
    shard_metrics: Dict[int, MetricsCollector] = {}
    for index, spec in enumerate(specs):
        config = SeeMoReConfig.build(
            spec.crash_tolerance,
            spec.byzantine_tolerance,
            name_prefix=f"s{index}-",
            checkpoint_period=spec.checkpoint_period,
            request_timeout=spec.request_timeout,
            batch_policy=spec.batch_policy or BatchPolicy(),
        )
        replicas = _spawn_seemore_cluster(
            config, spec.mode, runtime, keystore, placement, workload, cost_model
        )
        metrics = MetricsCollector()
        client_config = client_config_for_mode(config, spec.mode, request_timeout=client_timeout)
        # The per-shard pool exists only to satisfy the single-cluster
        # Deployment surface (metrics / timeout accessors).  It must never
        # spawn clients: an unrouted single-cluster client would send every
        # key to this one shard, silently breaking the keyspace partition —
        # surge load through ShardedDeployment.add_clients instead.
        pool = ClientPool(
            runtime=runtime,
            keystore=keystore,
            placement=placement,
            client_config=client_config,
            workload=workload,
            metrics=metrics,
            name_prefix=f"s{index}-client",
        )
        pool.spawn = _reject_per_shard_spawn  # type: ignore[method-assign]
        shards.append(
            Deployment(
                protocol=f"seemore-{spec.mode.name.lower()}-s{index}",
                simulator=runtime.simulator,
                network=runtime.network,
                placement=placement,
                keystore=keystore,
                replicas=replicas,
                client_pool=pool,
                metrics=metrics,
                extras={"config": config, "mode": spec.mode, "shard_index": index},
                runtime=runtime,
            )
        )
        shard_configs[index] = config
        shard_client_configs[index] = client_config
        shard_metrics[index] = metrics

    def session_factory() -> Dict[int, ShardSession]:
        return {
            index: ShardSession(
                shard_id=index,
                config=shard_client_configs[index],
                members=frozenset(shard_configs[index].all_replicas),
            )
            for index in shard_configs
        }

    aggregate_metrics = MetricsCollector()
    pool = ShardedClientPool(
        runtime=runtime,
        keystore=keystore,
        placement=placement,
        session_factory=session_factory,
        router=router,
        workload=workload,
        metrics=aggregate_metrics,
        shard_recorders=shard_metrics,
        txn_timeout=txn_timeout,
    )
    pool.spawn(num_clients, window=client_window)

    extras: Dict[str, object] = {"partition_policy": partition_policy}
    policy = _resolve_adaptive_policy(adaptive)
    if policy is not None:
        controllers = []
        for index, shard in enumerate(shards):
            controller = AdaptiveModeController(
                shard,
                policy=policy,
                # Clients are shared across shards; the controller's
                # estimator keeps only evidence implicating this shard's
                # replicas.  The callable re-lists so surged clients count.
                clients=lambda: pool.clients,
                name=f"adaptive-s{index}",
            )
            shard.extras["adaptive"] = controller
            controller.start()
            controllers.append(controller)
        extras["adaptive"] = tuple(controllers)

    return ShardedDeployment(
        protocol=f"seemore-sharded-{len(specs)}x",
        simulator=runtime.simulator,
        network=runtime.network,
        placement=placement,
        keystore=keystore,
        shards=shards,
        specs=specs,
        partitioner=partitioner,
        router=router,
        client_pool=pool,
        metrics=aggregate_metrics,
        extras=extras,
    )


# -- multiprocess SeeMoRe ---------------------------------------------------------------


def _proc_seemore_setup(
    crash_tolerance: int,
    byzantine_tolerance: int,
    request_timeout: float,
    max_batch: int,
    seed: int,
    client_id: str,
):
    """Deterministically rebuild the shared cluster material inside a worker.

    Every proc worker derives the *same* config, key material, and
    workload from the same scalar kwargs — :class:`KeyStore` is seeded,
    so independently constructed stores agree on every HMAC key and
    cross-process signature verification just works.
    """
    config = SeeMoReConfig.build(
        crash_tolerance,
        byzantine_tolerance,
        request_timeout=request_timeout,
        batch_policy=BatchPolicy(max_batch=max_batch),
    )
    keystore = KeyStore(seed=f"seemore-proc-{seed}")
    for replica_id in config.all_replicas:
        keystore.register(replica_id)
    keystore.register(client_id)
    return config, keystore, Workload.build("0/0")


def _proc_replica_worker(
    runtime,
    replica_ids: Sequence[str],
    mode_name: str,
    crash_tolerance: int,
    byzantine_tolerance: int,
    request_timeout: float,
    max_batch: int,
    seed: int,
    client_id: str,
):
    """Build callable for one replica-group worker process.

    Module-level (picklable under the ``spawn`` start method); runs inside
    the child, registering its slice of the replica set on the worker's
    runtime.  Harvests each replica's flattened commit trace, ledger, and
    cached-reply digests so the supervisor can run the conformance checks
    without shipping live protocol objects across the process boundary.
    """
    from repro.runtime.conformance import RecordingReplica
    from repro.runtime.proc import WorkerPlan
    from repro.smr.state_machine import result_digest

    config, keystore, workload = _proc_seemore_setup(
        crash_tolerance, byzantine_tolerance, request_timeout, max_batch, seed, client_id
    )
    verifier = keystore.verifier()
    state_machine_factory = workload.state_machine_factory()
    mode = Mode[mode_name]
    replicas = {}
    for replica_id in replica_ids:
        replica = RecordingReplica(
            node_id=replica_id,
            runtime=runtime,
            config=config,
            signer=keystore.signer_for(replica_id),
            verifier=verifier,
            state_machine=state_machine_factory(),
            initial_mode=mode,
        )
        runtime.register(replica)
        replicas[replica_id] = replica

    def harvest():
        out = {}
        for replica_id, replica in replicas.items():
            digests = {}
            for (cid, timestamp), result in replica.executor.snapshot()["replies"].items():
                if cid == client_id:
                    digests[timestamp] = result_digest(result)
            out[replica_id] = {
                "commit_trace": list(replica.commit_trace),
                "ledger": replica.ledger,
                "committed_count": replica.committed_count,
                "last_executed": replica.last_executed,
                "reply_digests": digests,
            }
        return out

    return WorkerPlan(
        harvest=harvest,
        progress=lambda: {
            replica_id: replica.committed_count
            for replica_id, replica in replicas.items()
        },
    )


def _proc_client_worker(
    runtime,
    mode_name: str,
    crash_tolerance: int,
    byzantine_tolerance: int,
    request_timeout: float,
    client_timeout: float,
    max_batch: int,
    seed: int,
    client_id: str,
    num_requests: int,
    window: int,
):
    """Build callable for the client worker process (closed-loop driver)."""
    from repro.runtime.proc import WorkerPlan
    from repro.smr.client import Client

    config, keystore, workload = _proc_seemore_setup(
        crash_tolerance, byzantine_tolerance, request_timeout, max_batch, seed, client_id
    )
    mode = Mode[mode_name]
    client = Client(
        node_id=client_id,
        runtime=runtime,
        signer=keystore.signer_for(client_id),
        verifier=keystore.verifier(),
        config=client_config_for_mode(config, mode, request_timeout=client_timeout),
        operation_factory=workload.operation_factory(client_seed=0),
        max_requests=num_requests,
        window=window,
    )
    runtime.register(client)
    return WorkerPlan(
        kickoff=client.start,
        until=lambda: client.completed_count >= num_requests,
        harvest=lambda: {
            "completed": client.completed_count,
            "timeouts": client.timeouts,
        },
        progress=lambda: client.completed_count,
    )


def build_proc_seemore(
    mode: Mode = Mode.LION,
    num_procs: int = 2,
    num_requests: int = 200,
    window: int = 8,
    max_batch: int = 8,
    crash_tolerance: int = 1,
    byzantine_tolerance: int = 1,
    request_timeout: float = 5.0,
    client_timeout: float = 2.0,
    seed: int = 0,
    client_id: str = "proc-client",
    start_method: Optional[str] = None,
    stats_interval: float = 0.25,
) -> ProcCluster:
    """Build a multiprocess SeeMoRe cluster: real TCP, one process per group.

    The replica set is split round-robin into ``num_procs`` worker
    processes (clamped to the replica count) plus one client worker, each
    running its own :class:`~repro.runtime.proc.ProcWorkerRuntime`.  The
    default timeouts mirror the conformance oracle's aio leg: real-clock
    view-change and client-retransmit timers far above loopback
    scheduling noise, so jitter never masquerades as a fault.

    Returns an *unstarted* :class:`~repro.runtime.proc.ProcCluster`;
    call ``run()`` (or drive ``start``/``wait``/``shutdown`` manually).
    ``extras`` carries the parent-side ``config``, the worker→replica-ids
    grouping, and the client worker's name for tests and tools.
    """
    config = SeeMoReConfig.build(
        crash_tolerance,
        byzantine_tolerance,
        request_timeout=request_timeout,
        batch_policy=BatchPolicy(max_batch=max_batch),
    )
    replica_ids = list(config.all_replicas)
    num_procs = max(1, min(num_procs, len(replica_ids)))
    groups = [tuple(replica_ids[index::num_procs]) for index in range(num_procs)]
    shared = {
        "mode_name": mode.name,
        "crash_tolerance": crash_tolerance,
        "byzantine_tolerance": byzantine_tolerance,
        "request_timeout": request_timeout,
        "max_batch": max_batch,
        "seed": seed,
        "client_id": client_id,
    }
    workers = [
        WorkerSpec(
            name=f"replicas-{index}",
            build=_proc_replica_worker,
            kwargs={"replica_ids": group, **shared},
        )
        for index, group in enumerate(groups)
    ]
    workers.append(
        WorkerSpec(
            name="client",
            build=_proc_client_worker,
            kwargs={
                **shared,
                "client_timeout": client_timeout,
                "num_requests": num_requests,
                "window": window,
            },
        )
    )
    cluster = ProcCluster(
        workers, start_method=start_method, stats_interval=stats_interval
    )
    cluster.extras.update(
        {
            "config": config,
            "mode": mode,
            "replica_groups": {
                f"replicas-{index}": group for index, group in enumerate(groups)
            },
            "client_worker": "client",
            "num_requests": num_requests,
        }
    )
    return cluster


# -- baselines --------------------------------------------------------------------------


def build_paxos(
    crash_tolerance: int = 1,
    byzantine_tolerance: int = 0,
    workload: Optional[Workload] = None,
    num_clients: int = 1,
    seed: int = 0,
    cross_cloud_latency: Optional[float] = None,
    checkpoint_period: int = 128,
    request_timeout: float = 0.02,
    client_timeout: float = 0.2,
    cost_model: Optional[NodeCostModel] = None,
) -> Deployment:
    """Build the CFT baseline sized to tolerate ``f = c + m`` crash failures.

    The paper configures CFT to tolerate the same *total* number of failures
    as SeeMoRe, so the builder accepts both tolerances and adds them.
    """
    workload = workload or Workload.build("0/0")
    fault_tolerance = crash_tolerance + byzantine_tolerance
    config = PaxosConfig.build(
        fault_tolerance,
        checkpoint_period=checkpoint_period,
        request_timeout=request_timeout,
    )
    placement = Placement()
    placement.assign_many(config.replicas, Cloud.PRIVATE)

    runtime = _build_fabric(placement, seed, cross_cloud_latency, cost_model)
    keystore = KeyStore(seed=f"paxos-{seed}")
    for replica_id in config.replicas:
        keystore.register(replica_id)
    verifier = keystore.verifier()

    state_machine_factory = workload.state_machine_factory()
    replicas = {}
    for replica_id in config.replicas:
        replica = PaxosReplica(
            node_id=replica_id,
            runtime=runtime,
            config=config,
            signer=keystore.signer_for(replica_id),
            verifier=verifier,
            state_machine=state_machine_factory(),
            cost_model=cost_model,
        )
        runtime.register(replica)
        replicas[replica_id] = replica

    client_config = paxos_client_config(config, request_timeout=client_timeout)
    return _finish_deployment(
        protocol="cft",
        runtime=runtime,
        placement=placement,
        keystore=keystore,
        replicas=replicas,
        client_config=client_config,
        workload=workload,
        num_clients=num_clients,
        extras={"config": config},
    )


def build_pbft(
    crash_tolerance: int = 0,
    byzantine_tolerance: int = 1,
    workload: Optional[Workload] = None,
    num_clients: int = 1,
    seed: int = 0,
    cross_cloud_latency: Optional[float] = None,
    checkpoint_period: int = 128,
    request_timeout: float = 0.02,
    client_timeout: float = 0.2,
    cost_model: Optional[NodeCostModel] = None,
) -> Deployment:
    """Build the BFT baseline sized to tolerate ``f = c + m`` Byzantine failures."""
    workload = workload or Workload.build("0/0")
    fault_tolerance = crash_tolerance + byzantine_tolerance
    config = PBFTConfig.build(
        fault_tolerance,
        checkpoint_period=checkpoint_period,
        request_timeout=request_timeout,
    )
    placement = Placement()
    placement.assign_many(config.replicas, Cloud.PUBLIC)

    runtime = _build_fabric(placement, seed, cross_cloud_latency, cost_model)
    keystore = KeyStore(seed=f"pbft-{seed}")
    for replica_id in config.replicas:
        keystore.register(replica_id)
    verifier = keystore.verifier()

    state_machine_factory = workload.state_machine_factory()
    replicas = {}
    for replica_id in config.replicas:
        replica = QuorumBFTReplica(
            node_id=replica_id,
            runtime=runtime,
            config=config,
            signer=keystore.signer_for(replica_id),
            verifier=verifier,
            state_machine=state_machine_factory(),
            cost_model=cost_model,
        )
        runtime.register(replica)
        replicas[replica_id] = replica

    client_config = pbft_client_config(config, request_timeout=client_timeout)
    return _finish_deployment(
        protocol="bft",
        runtime=runtime,
        placement=placement,
        keystore=keystore,
        replicas=replicas,
        client_config=client_config,
        workload=workload,
        num_clients=num_clients,
        extras={"config": config},
    )


def build_upright(
    crash_tolerance: int = 1,
    byzantine_tolerance: int = 1,
    workload: Optional[Workload] = None,
    num_clients: int = 1,
    seed: int = 0,
    cross_cloud_latency: Optional[float] = None,
    checkpoint_period: int = 128,
    request_timeout: float = 0.02,
    client_timeout: float = 0.2,
    cost_model: Optional[NodeCostModel] = None,
) -> Deployment:
    """Build the S-UpRight baseline (hybrid sizing, PBFT-like agreement)."""
    workload = workload or Workload.build("0/0")
    config = UpRightConfig.build(
        crash_tolerance,
        byzantine_tolerance,
        checkpoint_period=checkpoint_period,
        request_timeout=request_timeout,
    )
    placement = Placement()
    # UpRight does not localise fault types; mimic the paper's layout by
    # putting 2c nodes alongside the private cloud and the rest in public,
    # which only matters when the cross-cloud latency is raised.
    private_count = 2 * crash_tolerance
    placement.assign_many(config.replicas[:private_count], Cloud.PRIVATE)
    placement.assign_many(config.replicas[private_count:], Cloud.PUBLIC)

    runtime = _build_fabric(placement, seed, cross_cloud_latency, cost_model)
    keystore = KeyStore(seed=f"upright-{seed}")
    for replica_id in config.replicas:
        keystore.register(replica_id)
    verifier = keystore.verifier()

    state_machine_factory = workload.state_machine_factory()
    replicas = {}
    for replica_id in config.replicas:
        replica = QuorumBFTReplica(
            node_id=replica_id,
            runtime=runtime,
            config=config,
            signer=keystore.signer_for(replica_id),
            verifier=verifier,
            state_machine=state_machine_factory(),
            cost_model=cost_model,
        )
        runtime.register(replica)
        replicas[replica_id] = replica

    client_config = upright_client_config(config, request_timeout=client_timeout)
    return _finish_deployment(
        protocol="s-upright",
        runtime=runtime,
        placement=placement,
        keystore=keystore,
        replicas=replicas,
        client_config=client_config,
        workload=workload,
        num_clients=num_clients,
        extras={"config": config},
    )


# -- registry ---------------------------------------------------------------------------------


_BUILDERS: Dict[str, Callable[..., Deployment]] = {
    "seemore-lion": lambda **kwargs: build_seemore(mode=Mode.LION, **kwargs),
    "seemore-dog": lambda **kwargs: build_seemore(mode=Mode.DOG, **kwargs),
    "seemore-peacock": lambda **kwargs: build_seemore(mode=Mode.PEACOCK, **kwargs),
    "cft": build_paxos,
    "bft": build_pbft,
    "s-upright": build_upright,
}


def builder_for(protocol: str) -> Callable[..., Deployment]:
    """Look up a deployment builder by protocol name.

    Valid names: ``seemore-lion``, ``seemore-dog``, ``seemore-peacock``,
    ``cft``, ``bft``, ``s-upright``.
    """
    try:
        return _BUILDERS[protocol]
    except KeyError:
        raise KeyError(
            f"unknown protocol {protocol!r}; choose one of {sorted(_BUILDERS)}"
        ) from None
