"""Deployment builders: the public ``build_*`` entry points.

How a replica group gets wired is decided in one place,
:mod:`repro.cluster.wiring`: the :data:`~repro.cluster.wiring.PROTOCOLS`
table (one row each for ``seemore``, ``cft``, ``bft``, ``s-upright``) and
:func:`~repro.cluster.wiring.wire_group`, which keys, instantiates and
registers one group on any :class:`~repro.runtime.api.Runtime`.  This
module only *assembles* — "table row → runtime → ``wire_group`` per group →
client pool" — onto two things:

* **Simulated** — :func:`build_seemore`, :func:`build_paxos`,
  :func:`build_pbft`, :func:`build_upright` and
  :func:`build_sharded_seemore` share :func:`_sim_deployment`: one
  simulated fabric (placement-aware latency, cost model, seeded network),
  one keystore, one :class:`~repro.cluster.wiring.Group` per spec and one
  client pool, in the one :class:`~repro.cluster.deployment.Deployment`.
  A single cluster is the one-group case with unrouted clients; the sharded
  builder hands the same assembly N specs and a router.  All take
  ``workload`` / ``num_clients`` / ``seed`` / ``cross_cloud_latency`` /
  ``cost_model``; batching, client windows, the adaptive controller and
  admission control are SeeMoRe-only knobs.
* **The oracle cluster** — :func:`build_proc_seemore` returns an unstarted
  :class:`~repro.runtime.proc.ProcCluster` of worker specs; every worker
  receives the picklable group settings and calls :func:`wire_oracle` (and
  with it ``wire_group``) itself, for its slice of the replica ids or for
  the one closed-loop client.  The conformance oracle runs those same specs
  on every backend — in worker processes for proc, on one runtime in this
  process for sim and aio — so it compares the very cluster this builds.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from repro.adaptive import AdaptiveModeController, AdaptivePolicy
from repro.cluster.deployment import Deployment
from repro.cluster.wiring import PROTOCOLS, ShardSpec, new_keystore, wire_group
from repro.core import AdmissionPolicy, BatchPolicy, Mode, SeeMoReReplica
from repro.net.costs import NodeCostModel
from repro.net.latency import lan_latency
from repro.net.network import Network
from repro.net.topology import Placement
from repro.runtime.proc import ProcCluster, WorkerPlan, WorkerSpec
from repro.runtime.sim import SimRuntime
from repro.shard import ShardRouter, make_partitioner
from repro.sim.simulator import Simulator
from repro.smr.client import Client
from repro.smr.replica import NOOP_CLIENT
from repro.smr.state_machine import result_digest
from repro.workload.client_pool import ClientPool
from repro.workload.generator import ShardedKeyValueWorkload, Workload, WorkloadSpec
from repro.workload.metrics import MetricsCollector

#: What builders accept for their ``adaptive`` knob: ``True`` for the
#: default policy, an :class:`AdaptivePolicy` for tuned knobs, or
#: ``None``/``False`` for no controller.
AdaptiveSpec = Union[bool, AdaptivePolicy, None]


def _sim_deployment(
    protocol: str,
    specs: Sequence[ShardSpec],
    workload: Workload,
    num_clients: int,
    seed: int,
    cross_cloud_latency: Optional[float],
    cost_model: Optional[NodeCostModel],
    client_timeout: float,
    client_window: Optional[int],
    adaptive: AdaptiveSpec,
    router: Optional[ShardRouter] = None,
    txn_timeout: Optional[float] = None,
) -> Deployment:
    """The one sim assembly: a fabric, a keystore, a group per spec, a client pool.

    Unrouted, the single group keeps bare replica ids, records straight into
    the deployment's collector and signs under the protocol's namespace.
    Routed, group ``i`` is namespaced ``s{i}-`` so N independently
    configured clusters coexist on one runtime, placement and keystore, and
    each group's own recorder sits beside the aggregate one.  Clients are
    ``client-N`` either way.
    """
    placement = Placement()
    simulator = Simulator()
    latency = lan_latency(placement, cross_cloud=cross_cloud_latency)
    network = Network(simulator, latency, cost_model=cost_model, seed=seed)
    runtime = SimRuntime(simulator, network)
    routed = router is not None
    keystore = new_keystore(PROTOCOLS[protocol].namespace + ("-sharded" if routed else ""), seed)
    groups = []
    for index, spec in enumerate(specs):
        group = wire_group(
            runtime,
            keystore,
            protocol,
            spec,
            workload,
            prefix=f"s{index}-" if routed else "",
            placement=placement,
        )
        if routed:
            group.label += f"-s{index}"
        groups.append(group)
    metrics = MetricsCollector() if routed else groups[0].metrics
    pool = ClientPool(
        runtime,
        keystore,
        placement,
        [group.client_config(client_timeout) for group in groups],
        workload,
        metrics,
        router=router,
        shard_recorders={index: group.metrics for index, group in enumerate(groups)},
        txn_timeout=txn_timeout,
    )
    # num_clients == 0 leaves the pool empty for open-loop deployments,
    # whose connections are spawned by ClientPool.spawn_open_loop instead.
    if num_clients > 0:
        pool.spawn(num_clients, window=client_window)
    deployment = Deployment(
        protocol=f"seemore-sharded-{len(groups)}x" if routed else groups[0].label,
        runtime=runtime,
        simulator=simulator,
        network=network,
        placement=placement,
        keystore=keystore,
        shards=tuple(groups),
        client_pool=pool,
        metrics=metrics,
        router=router,
    )
    if adaptive:
        # One controller per group: each estimates its own fault environment
        # (the clients are shared; evidence implicating another group's
        # replicas is filtered out by its estimator) and switches its own mode.
        policy = adaptive if isinstance(adaptive, AdaptivePolicy) else AdaptivePolicy()
        for group in groups:
            name = f"adaptive-s{group.index}" if routed else "adaptive"
            group.adaptive = AdaptiveModeController(group, deployment, policy=policy, name=name)
            group.adaptive.start()
    return deployment


def _build_single(
    protocol: str,
    workload: Optional[Workload],
    num_clients: int,
    seed: int,
    cross_cloud_latency: Optional[float],
    client_timeout: float,
    cost_model: Optional[NodeCostModel],
    client_window: Optional[int] = None,
    adaptive: AdaptiveSpec = None,
    **settings,
) -> Deployment:
    """A single cluster: the one-group, unrouted case of :func:`_sim_deployment`.

    The public single-cluster builders forward their arguments here by name
    (``**locals()``); whatever is not an assembly knob above is a
    :class:`ShardSpec` field — the group's own settings.
    """
    return _sim_deployment(
        protocol,
        [ShardSpec(**settings)],
        workload or Workload.build("0/0"),
        num_clients,
        seed,
        cross_cloud_latency,
        cost_model,
        client_timeout,
        client_window,
        adaptive,
    )


# -- SeeMoRe ---------------------------------------------------------------------


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
    ``deployment.group().adaptive``.

    ``admission`` attaches primary-side admission control (see
    :class:`~repro.core.admission.AdmissionPolicy`): past the watermark the
    primary sheds new requests with a signed ``Busy`` instead of queueing
    them.  ``num_clients=0`` builds the deployment with an empty client
    pool so an open-loop driver can spawn its own connections.
    """
    return _build_single("seemore", **locals())


# -- sharded SeeMoRe --------------------------------------------------------------------


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
) -> Deployment:
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
    modes.  Each is exposed on its group: ``deployment.shards[i].adaptive``.
    """
    if shard_specs is not None:
        specs = tuple(shard_specs)
    else:
        uniform = ShardSpec(
            mode=mode,
            crash_tolerance=crash_tolerance,
            byzantine_tolerance=byzantine_tolerance,
            checkpoint_period=checkpoint_period,
            request_timeout=request_timeout,
            batch_policy=batch_policy,
        )
        specs = (uniform,) * num_shards
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

    return _sim_deployment(
        "seemore",
        specs,
        workload,
        num_clients,
        seed,
        cross_cloud_latency,
        cost_model,
        client_timeout,
        client_window,
        adaptive,
        router=router,
        txn_timeout=txn_timeout,
    )


# -- the oracle cluster: multiprocess SeeMoRe -------------------------------------------


def _harvest(replica: SeeMoReReplica, client_id: str) -> Dict[str, object]:
    """All the oracle needs from a replica, as plain data that can cross a process.

    ``commit_trace`` is the replica's execution order flattened to
    ``(client_id, timestamp)`` pairs, no-ops left out; ``reply_digests``
    holds the digest of every reply cached for ``client_id`` (what its
    votes compare).
    """
    return {
        "commit_trace": [
            (each.client_id, each.timestamp)
            for each in replica.executor.executed
            if each.client_id != NOOP_CLIENT
        ],
        "ledger": replica.ledger,
        "committed_count": replica.committed_count,
        "last_executed": replica.last_executed,
        "reply_digests": {
            timestamp: result_digest(result)
            for timestamp, result in replica.executor.replies_to(client_id).items()
        },
    }


def wire_oracle(
    runtime,
    settings: ShardSpec,
    seed: int,
    client_id: str,
    replica_ids: Optional[Sequence[str]] = None,
    client_timeout: Optional[float] = None,
    num_requests: int = 0,
    window: int = 1,
) -> Tuple[Dict[str, SeeMoReReplica], Optional[Client]]:
    """The oracle's cluster, or one worker's share of it, on ``runtime``.

    Wires ``replica_ids`` (every replica by default) and, given a
    ``client_timeout``, the one closed-loop client ``{client_id}-0``.  Every
    call derives its keys from the same ``(settings, seed)``, so shares wired
    on one runtime or in separate processes form one cluster.
    """
    keystore = new_keystore("seemore-proc", seed)
    workload = Workload.build("0/0")
    group = wire_group(runtime, keystore, "seemore", settings, workload, only=replica_ids)
    if client_timeout is None:
        # The client lives elsewhere; its key is all these replicas need.
        keystore.register(f"{client_id}-0")
        return group.replicas, None
    pool = ClientPool(
        runtime,
        keystore,
        Placement(),
        [group.client_config(client_timeout)],
        workload,
        name_prefix=client_id,
    )
    (client,) = pool.spawn(1, max_requests_each=num_requests, window=window)
    return group.replicas, client


def _oracle_worker(runtime, **kwargs) -> WorkerPlan:
    """Build callable for every worker of :func:`build_proc_seemore`.

    Module-level (picklable under the ``spawn`` start method).  A replica
    worker harvests each replica (:func:`_harvest`), so the
    oracle's checks need no live protocol object from another process; the
    client worker drives its closed loop and harvests its counts.
    """
    replicas, client = wire_oracle(runtime, **kwargs)
    if client is None:
        client_node = f"{kwargs['client_id']}-0"
        return WorkerPlan(
            harvest=lambda: {
                replica_id: _harvest(replica, client_node)
                for replica_id, replica in replicas.items()
            },
            progress=lambda: {
                replica_id: replica.committed_count for replica_id, replica in replicas.items()
            },
        )
    return WorkerPlan(
        kickoff=client.start,
        until=lambda: client.completed_count >= client.max_requests,
        harvest=lambda: {"completed": client.completed_count, "timeouts": client.timeouts},
        progress=lambda: client.completed_count,
    )


#: Proposed-but-uncommitted slots a multiprocess cluster's primary keeps in
#: flight.  Bounded, so the client's window queues behind them and batches
#: (and with them replies answering several requests) form; unbounded, with
#: no linger, every slot would hold one request.  Every conformance leg
#: runs this builder's workers, so every leg batches alike.
PROC_PIPELINE_DEPTH = 2


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
    scheduling noise, so jitter never masquerades as a fault.  The client
    node is ``{client_id}-0`` — the first (only) client of the worker's pool.
    The primary batches up to ``max_batch`` requests per slot with at most
    :data:`PROC_PIPELINE_DEPTH` slots in flight.

    Returns an *unstarted* :class:`~repro.runtime.proc.ProcCluster`;
    call ``run()`` (or drive ``start``/``wait``/``shutdown`` manually).
    ``extras`` carries the parent-side ``config``, the worker→replica-ids
    grouping, and the client worker's name for tests and tools.
    """
    settings = ShardSpec(
        mode=mode,
        crash_tolerance=crash_tolerance,
        byzantine_tolerance=byzantine_tolerance,
        request_timeout=request_timeout,
        batch_policy=BatchPolicy(max_batch=max_batch, pipeline_depth=PROC_PIPELINE_DEPTH),
    )
    config = PROTOCOLS["seemore"].make_config(settings, "")
    replica_ids = list(config.all_replicas)
    num_procs = max(1, min(num_procs, len(replica_ids)))
    groups = {
        f"replicas-{index}": tuple(replica_ids[index::num_procs])
        for index in range(num_procs)
    }
    shared = {"settings": settings, "seed": seed, "client_id": client_id}
    workers = [
        WorkerSpec(name, _oracle_worker, {"replica_ids": group, **shared})
        for name, group in groups.items()
    ]
    client = {"client_timeout": client_timeout, "num_requests": num_requests, "window": window}
    workers.append(WorkerSpec("client", _oracle_worker, {"replica_ids": (), **shared, **client}))
    cluster = ProcCluster(workers, start_method=start_method, stats_interval=stats_interval)
    cluster.extras.update(
        {
            "config": config,
            "mode": mode,
            "replica_groups": groups,
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
    return _build_single("cft", **locals())


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
    return _build_single("bft", **locals())


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
    return _build_single("s-upright", **locals())


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
