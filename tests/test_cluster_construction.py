"""Cluster construction is pinned: same nodes, same keys, same runs.

``tests/data/build_golden.json`` was generated from the commit *before*
the six hand-written builder bodies were folded into
:func:`repro.cluster.wiring.wire_group`.  For every protocol, two cluster
shapes and two seeds it records the node ids in ``runtime.register``
order, the keystore's ids and — after a short measured run — the
simulator's event count, the completed-request count and the first
replica's ledger digest at its highest committed slot.  The builders must
keep reproducing it exactly: construction order *is* simulated behaviour.
The sharded legs also carry ``completions`` (every client's completed
timestamps in order and the send/completion times of its first 20), added
from the commit before ``ShardedClient`` became a ``Client`` with one session
per shard; no other entry was regenerated then.  The ``crashes`` block
(baselines only: three clients, 0.1 s, crash the view-0 primary, 0.6 s) was
added from the commit before the baselines moved onto one
``BaselineReplica`` skeleton; the ``bft`` / ``s-upright`` legs have not been
regenerated since, the ``cft`` legs once (Paxos took the skeleton's
view-change rules where it had differed by omission; CHANGES.md lists them).

Regenerate (only when a behaviour change is intended and explained)::

    PYTHONPATH=src python tests/test_cluster_construction.py
"""

import inspect
import json
from functools import partial
from pathlib import Path

import pytest

from repro.cluster import (
    build_paxos,
    build_pbft,
    build_seemore,
    build_sharded_seemore,
    build_upright,
    builder_for,
    run_deployment,
)
from repro.cluster.builders import PROC_PIPELINE_DEPTH, build_proc_seemore, wire_oracle
from repro.core import BatchPolicy, Mode, SeeMoReReplica
from repro.faults import crash_primary
from repro.runtime import conformance
from repro.net.costs import NodeCostModel
from repro.net.network import Network
from repro.runtime.sim import SimRuntime
from repro.sim.simulator import Simulator
from repro.workload import Workload, WorkloadSpec

GOLDEN_PATH = Path(__file__).parent / "data" / "build_golden.json"

PROTOCOLS = ("seemore-lion", "seemore-dog", "seemore-peacock", "cft", "bft", "s-upright")
SHAPES = ((1, 1), (1, 2))
SEEDS = (0, 7)
SHARD_COUNTS = (2, 4)
CRASH_PROTOCOLS = ("cft", "bft", "s-upright")

PUBLIC_BUILDERS = {
    "build_seemore": build_seemore,
    "build_sharded_seemore": build_sharded_seemore,
    "build_proc_seemore": build_proc_seemore,
    "build_paxos": build_paxos,
    "build_pbft": build_pbft,
    "build_upright": build_upright,
}


def single_cases():
    return [
        (f"{protocol}/c{c}m{m}/seed{seed}", protocol, c, m, seed)
        for protocol in PROTOCOLS
        for c, m in SHAPES
        for seed in SEEDS
    ]


def sharded_cases():
    return [
        (f"sharded-{shards}x/seed{seed}", shards, seed)
        for shards in SHARD_COUNTS
        for seed in SEEDS
    ]


def crash_cases():
    return [case for case in single_cases() if case[1] in CRASH_PROTOCOLS]


def completion_trace(clients, first=20):
    """Per client: every completed timestamp in completion order, plus the
    ``[sent_at, completed_at]`` of the first few — equal counts cannot hide a
    changed retransmission or completion order behind this."""
    return {
        client.node_id: {
            "timestamps": [record.timestamp for record in client.completed],
            "first": [[record.sent_at, record.completed_at] for record in client.completed[:first]],
        }
        for client in clients
    }


def _snapshot(deployment, first_replica):
    built = {
        # Network._nodes is insertion-ordered: exactly runtime.register order.
        "register_order": list(deployment.network._nodes),
        "keystore_ids": list(deployment.keystore.node_ids),
    }
    run_deployment(deployment, duration=0.2, warmup=0.05)
    ledger = first_replica(deployment).ledger
    built.update(
        events_processed=deployment.simulator.events_processed,
        completed=deployment.metrics.completed,
        ledger_digest=ledger.digest_at(ledger.highest_committed),
    )
    return built


def capture_single(protocol, c, m, seed):
    deployment = builder_for(protocol)(crash_tolerance=c, byzantine_tolerance=m, seed=seed)
    return _snapshot(deployment, lambda d: next(iter(d.replicas.values())))


def capture_crash(protocol, c, m, seed):
    """Fingerprint of a baseline's view change after its view-0 primary crashes."""
    deployment = builder_for(protocol)(
        crash_tolerance=c, byzantine_tolerance=m, num_clients=3, seed=seed
    )
    deployment.start_clients()
    deployment.run(0.1)
    crash_primary(deployment.group())
    deployment.run(0.6)
    deployment.assert_safe()
    survivor = deployment.correct_replicas()[0]
    return {
        "events_processed": deployment.simulator.events_processed,
        "completed": deployment.metrics.completed,
        "view": survivor.view,
        "ledger_digest": survivor.ledger.digest_at(survivor.ledger.highest_committed),
    }


def capture_sharded(shards, seed):
    deployment = build_sharded_seemore(num_shards=shards, seed=seed)
    built = _snapshot(deployment, lambda d: next(iter(d.shards[0].replicas.values())))
    built["completions"] = completion_trace(deployment.clients)
    return built


def capture_signatures():
    return {
        name: [
            [parameter.name, repr(parameter.default)]
            for parameter in inspect.signature(builder).parameters.values()
        ]
        for name, builder in PUBLIC_BUILDERS.items()
    }


def capture_all():
    golden = {"signatures": capture_signatures(), "clusters": {}, "crashes": {}}
    for case_id, *args in single_cases():
        golden["clusters"][case_id] = capture_single(*args)
    for case_id, *args in crash_cases():
        golden["crashes"][case_id] = capture_crash(*args)
    for case_id, *args in sharded_cases():
        golden["clusters"][case_id] = capture_sharded(*args)
    return golden


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.integration
@pytest.mark.parametrize(
    "case_id,protocol,c,m,seed", single_cases(), ids=[case[0] for case in single_cases()]
)
def test_single_cluster_construction_matches_the_parent(golden, case_id, protocol, c, m, seed):
    assert capture_single(protocol, c, m, seed) == golden["clusters"][case_id]


@pytest.mark.integration
@pytest.mark.parametrize(
    "case_id,protocol,c,m,seed", crash_cases(), ids=[case[0] for case in crash_cases()]
)
def test_baseline_primary_crash_matches_the_golden_run(golden, case_id, protocol, c, m, seed):
    assert capture_crash(protocol, c, m, seed) == golden["crashes"][case_id]


@pytest.mark.integration
@pytest.mark.shard
@pytest.mark.parametrize(
    "case_id,shards,seed", sharded_cases(), ids=[case[0] for case in sharded_cases()]
)
def test_sharded_construction_matches_the_parent(golden, case_id, shards, seed):
    assert capture_sharded(shards, seed) == golden["clusters"][case_id]


@pytest.mark.parametrize("name", sorted(PUBLIC_BUILDERS))
def test_public_builder_signatures_are_pinned(golden, name):
    assert capture_signatures()[name] == golden["signatures"][name]


@pytest.mark.parametrize("mode", list(Mode), ids=lambda mode: mode.name.lower())
def test_conformance_sim_leg_builds_what_build_seemore_builds(mode):
    """The oracle's cluster is the builders' cluster: one wiring function."""
    simulator = Simulator()
    runtime = SimRuntime(simulator, Network(simulator))
    request_timeout, client_timeout = conformance.TIMEOUTS["sim"]
    cluster = build_proc_seemore(mode=mode, request_timeout=request_timeout)
    settings = cluster.specs[0].kwargs["settings"]
    replicas, client = wire_oracle(
        runtime, settings, 0, conformance.CLIENT_PREFIX, client_timeout=client_timeout
    )
    deployment = build_seemore(
        mode=mode,
        batch_policy=BatchPolicy(max_batch=8, pipeline_depth=PROC_PIPELINE_DEPTH),
    )
    assert client.request_timeout == deployment.clients[0].request_timeout
    assert list(replicas) == list(deployment.replicas)
    for replica_id, replica in replicas.items():
        assert type(replica) is SeeMoReReplica
        assert replica.config == deployment.group().config
        assert replica.mode is deployment.replicas[replica_id].mode is mode


def _first_operations(client, count=20):
    return [client.operation_factory(timestamp) for timestamp in range(1, count + 1)]


def _assert_streams_distinct(clients):
    streams = {client.node_id: _first_operations(client) for client in clients}
    ids = sorted(streams)
    for index, left in enumerate(ids):
        for right in ids[index + 1 :]:
            assert streams[left] != streams[right], (
                f"{left} and {right} replay the same operation stream"
            )


def test_surged_clients_issue_their_own_operation_stream():
    deployment = build_seemore(
        workload=Workload.build(WorkloadSpec(kind="kv", seed=3)), num_clients=2
    )
    deployment.add_clients(2, start=False)
    assert [client.node_id for client in deployment.clients] == [
        "client-0",
        "client-1",
        "client-2",
        "client-3",
    ]
    _assert_streams_distinct(deployment.clients)


@pytest.mark.shard
def test_surged_sharded_clients_issue_their_own_operation_stream():
    deployment = build_sharded_seemore(
        num_shards=2,
        num_clients=2,
        workload=Workload.build(WorkloadSpec(kind="sharded-kv", seed=3)),
    )
    deployment.add_clients(2, start=False)
    assert len(deployment.clients) == 4
    _assert_streams_distinct(deployment.clients)



@pytest.mark.parametrize(
    "build",
    [
        build_seemore,
        pytest.param(partial(build_sharded_seemore, num_shards=2), marks=pytest.mark.shard),
        build_pbft,
    ],
    ids=["seemore", "sharded", "pbft"],
)
@pytest.mark.parametrize(
    "cost_model", [None, NodeCostModel(send_base_cost=1e-3)], ids=["default", "custom"]
)
def test_every_node_is_charged_by_the_deployment_cost_model(build, cost_model):
    """One cost model per deployment: the network's, on every replica and client CPU."""
    deployment = build(num_clients=1, cost_model=cost_model)
    deployment.add_clients(1, start=False)
    model = deployment.network.cost_model
    if cost_model is not None:
        assert model is cost_model
    nodes = [*deployment.replicas.values(), *deployment.clients]
    assert len(deployment.clients) == 2
    assert [node.node_id for node in nodes if node.process.cost_model is not model] == []

if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
