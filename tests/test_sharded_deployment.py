"""Integration tests for sharded deployments: routing, 2PC, faults, metrics."""

import pytest

from repro.cluster import ShardSpec, build_sharded_seemore, run_deployment
from repro.core import Mode
from repro.workload import Workload, WorkloadSpec

pytestmark = [pytest.mark.shard, pytest.mark.integration]


def sharded_kv(**knobs):
    return Workload.build(WorkloadSpec(kind="sharded-kv", **knobs))


def _build(num_shards=2, **kwargs):
    kwargs.setdefault("num_clients", 3)
    kwargs.setdefault("seed", 11)
    kwargs.setdefault("client_window", 2)
    kwargs.setdefault("txn_timeout", 0.3)
    return build_sharded_seemore(num_shards=num_shards, **kwargs)


class TestShardedDeploymentBasics:
    def test_shards_share_one_fabric_with_distinct_replicas(self):
        deployment = _build(num_shards=3)
        assert len(deployment.shards) == 3
        all_ids = [rid for shard in deployment.shards for rid in shard.replicas]
        assert len(all_ids) == len(set(all_ids))
        assert list(deployment.replicas) == all_ids
        assert all(
            replica.runtime is deployment.runtime for replica in deployment.replicas.values()
        )

    def test_per_shard_specs_configure_modes_independently(self):
        specs = (ShardSpec(mode=Mode.LION), ShardSpec(mode=Mode.PEACOCK, byzantine_tolerance=2))
        deployment = _build(shard_specs=specs, num_shards=None)
        assert deployment.shards[0].mode is Mode.LION
        assert deployment.shards[1].mode is Mode.PEACOCK
        assert deployment.shards[1].config.byzantine_tolerance == 2

    def test_rejects_empty_spec_list(self):
        with pytest.raises(ValueError):
            build_sharded_seemore(shard_specs=())

    def test_a_group_has_no_pool_to_spawn_unrouted_clients_from(self):
        # An unrouted single-cluster client would aim every key at one
        # shard, silently breaking the keyspace partition — so there is one
        # pool, the deployment's, and it routes.
        deployment = _build(num_shards=2)
        for group in deployment.shards:
            assert not hasattr(group, "client_pool") and not hasattr(group, "add_clients")
        assert deployment.client_pool.router is deployment.router

    def test_surged_clients_route_through_the_partitioner(self):
        deployment = _build(
            num_shards=2, workload=sharded_kv(seed=11, cross_shard_fraction=0.0)
        )
        deployment.start_clients()
        deployment.run(0.1)
        created = deployment.add_clients(2)
        assert all(client.router is deployment.router for client in created)
        before = [shard.metrics.completed for shard in deployment.shards]
        deployment.run(0.2)
        deployment.stop_clients()
        after = [shard.metrics.completed for shard in deployment.shards]
        # The surge reaches BOTH shards: routed traffic keeps the partition.
        assert all(later > earlier for earlier, later in zip(before, after))
        deployment.assert_safe()

    def test_sharded_workload_inherits_the_deployment_partitioner(self):
        workload = sharded_kv(seed=1, cross_shard_fraction=0.5)
        assert workload.partitioner is None
        deployment = _build(workload=workload)
        assert deployment.client_pool.workload.partitioner is deployment.partitioner


class TestShardedRun:
    def test_load_spreads_and_aggregate_matches(self):
        deployment = _build(
            num_shards=2, workload=sharded_kv(seed=11, cross_shard_fraction=0.0)
        )
        result = run_deployment(deployment, duration=0.25, warmup=0.05)
        assert result.completed > 100
        per_shard = [summary.completed for summary in result.per_shard]
        assert all(count > 0 for count in per_shard)
        # With no cross-shard traffic every completion belongs to exactly
        # one shard, so the shard collectors partition the aggregate.
        assert sum(shard.metrics.completed for shard in deployment.shards) == (
            deployment.metrics.completed
        )

    def test_cross_shard_transactions_commit_on_every_participant(self):
        deployment = _build(
            num_shards=2,
            workload=sharded_kv(seed=11, cross_shard_fraction=0.2),
        )
        result = run_deployment(deployment, duration=0.3, warmup=0.05)
        assert result.transactions["committed"] > 5
        assert result.transactions["aborted"] == 0
        # Every shard's correct replicas recorded the same decisions.
        for shard in deployment.shards:
            machines = [r.executor.state_machine for r in shard.correct_replicas()]
            assert machines[0].txn_decisions
            assert all(m.txn_decisions == machines[0].txn_decisions for m in machines)
            assert all(set(m.txn_decisions.values()) == {"commit"} for m in machines)

    def test_committed_transaction_writes_are_visible_on_both_shards(self):
        deployment = _build(
            num_shards=2,
            workload=sharded_kv(seed=11, cross_shard_fraction=0.3, read_fraction=0.0),
        )
        run_deployment(deployment, duration=0.25, warmup=0.05)
        partitioner = deployment.partitioner
        # Collect one committed transaction from any client coordinator's
        # history via the state machines: pick a key of each shard that was
        # written and check the stores agree with their shard's ownership.
        for index, shard in enumerate(deployment.shards):
            store = shard.correct_replicas()[0].executor.state_machine
            written = [key for key in store.snapshot()["data"] if key.startswith("key-")]
            assert written, f"shard {index} never applied a write"
            assert all(partitioner.shard_of_key(key) == index for key in written)

    def test_run_deployment_fills_the_sharded_section(self):
        deployment = _build(num_shards=2)
        result = run_deployment(deployment, duration=0.2, warmup=0.05)
        assert result.protocol == "seemore-sharded-2x"
        assert result.completed > 30
        assert [summary.shard for summary in result.per_shard] == [0, 1]
        assert result.transactions == deployment.transaction_stats()

    def test_run_deployment_raises_on_a_split_decision(self):
        deployment = _build(num_shards=2)
        stores = [
            shard.correct_replicas()[0].executor.state_machine for shard in deployment.shards
        ]
        stores[0].txn_decisions["evil:1"] = "commit"
        stores[1].txn_decisions["evil:1"] = "abort"
        with pytest.raises(AssertionError, match="evil:1"):
            run_deployment(deployment, duration=0.05, warmup=0.0)

    def test_mixed_modes_serve_one_keyspace(self):
        specs = (ShardSpec(mode=Mode.LION), ShardSpec(mode=Mode.DOG), ShardSpec(mode=Mode.PEACOCK))
        deployment = _build(
            shard_specs=specs,
            num_shards=None,
            num_clients=2,
            workload=sharded_kv(seed=5, cross_shard_fraction=0.2),
        )
        result = run_deployment(deployment, duration=0.3, warmup=0.05)
        assert all(summary.completed > 0 for summary in result.per_shard)
        assert result.transactions["committed"] > 5


class TestShardedFaults:
    def test_whole_shard_crash_aborts_its_transactions_atomically(self):
        deployment = _build(
            num_shards=2,
            seed=3,
            num_clients=4,
            txn_timeout=0.1,
            workload=sharded_kv(seed=3, cross_shard_fraction=0.3),
        )
        simulator = deployment.simulator

        def crash_shard_one():
            for replica_id in sorted(deployment.shards[1].replicas):
                deployment.shards[1].replicas[replica_id].crash()
                deployment.shards[1].mark_faulty(replica_id)

        simulator.call_at(0.15, crash_shard_one)
        deployment.start_clients()
        simulator.run(until=1.0)
        deployment.stop_clients()
        simulator.run(until=1.2)

        stats = deployment.transaction_stats()
        assert stats["aborted"] >= 1
        assert deployment.atomicity_violations() == []
        assert deployment.safety_violations() == []
        # The surviving shard kept serving its own keys throughout.
        assert deployment.shards[0].metrics.completed > 0

    def test_shard_primary_crash_recovers_via_view_change(self):
        deployment = _build(
            num_shards=2,
            seed=7,
            workload=sharded_kv(seed=7, cross_shard_fraction=0.2),
        )
        simulator = deployment.simulator
        from repro.faults.crash import crash_primary

        simulator.call_at(0.2, lambda: crash_primary(deployment.shards[0]))
        deployment.start_clients()
        simulator.run(until=0.8)
        deployment.stop_clients()
        simulator.run(until=0.95)

        crashed_shard = deployment.shards[0]
        assert max(replica.view for replica in crashed_shard.correct_replicas()) >= 1
        completed_late = [
            record
            for client in deployment.clients
            for record in client.completed
            if record.completed_at > 0.5
        ]
        assert completed_late, "no progress after the shard's view change"
        deployment.assert_safe()
