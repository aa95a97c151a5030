"""Key-distribution and sharded-workload generation tests."""

from collections import Counter

import pytest

from repro.shard import HashPartitioner
from repro.smr.state_machine import TransactionalKeyValueStore
from repro.workload import Workload, WorkloadSpec
from repro.workload.generator import KeyValueWorkload, ShardedKeyValueWorkload


def kv(**knobs):
    return Workload.build(WorkloadSpec(kind="kv", **knobs))


def sharded_kv(**knobs):
    return Workload.build(WorkloadSpec(kind="sharded-kv", **knobs))


def _key_frequencies(workload, samples=4000, client_seed=0):
    factory = workload.operation_factory(client_seed=client_seed)
    counts = Counter()
    for timestamp in range(samples):
        operation = factory(timestamp)
        if operation.kind in ("put", "get"):
            counts[operation.args[0]] += 1
    return counts


class TestZipfianDistribution:
    def test_seed_determinism(self):
        first = kv(seed=9, key_distribution="zipfian").operation_factory(client_seed=3)
        second = kv(seed=9, key_distribution="zipfian").operation_factory(client_seed=3)
        assert [first(t).args[0] for t in range(200)] == [second(t).args[0] for t in range(200)]

    def test_different_seeds_differ(self):
        first = kv(seed=9, key_distribution="zipfian").operation_factory()
        second = kv(seed=10, key_distribution="zipfian").operation_factory()
        assert [first(t).args for t in range(50)] != [second(t).args for t in range(50)]

    def test_hot_keys_dominate(self):
        workload = kv(key_space=1000, seed=5, key_distribution="zipfian", zipf_theta=0.99)
        counts = _key_frequencies(workload)
        total = sum(counts.values())
        # Under uniform choice the top key would see ~total/1000 samples; a
        # Zipf(0.99) head must be more than an order of magnitude above that.
        assert counts["key-0"] > 10 * (total / 1000)
        top_ten = sum(counts[f"key-{rank}"] for rank in range(10))
        assert top_ten / total > 0.25

    def test_steeper_theta_concentrates_more(self):
        mild = _key_frequencies(kv(seed=5, key_distribution="zipfian", zipf_theta=0.5))
        steep = _key_frequencies(kv(seed=5, key_distribution="zipfian", zipf_theta=1.2))
        assert steep["key-0"] > mild["key-0"]

    def test_uniform_stays_flat(self):
        counts = _key_frequencies(kv(key_space=50, seed=5))
        assert max(counts.values()) < 4 * min(counts.values())

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ValueError):
            kv(key_distribution="pareto").operation_factory()
        with pytest.raises(ValueError):
            KeyValueWorkload(
                name="bad", key_distribution="zipfian", zipf_theta=0.0
            ).operation_factory()


class TestShardedWorkload:
    def test_cross_shard_fraction_controls_transaction_mix(self):
        workload = sharded_kv(seed=4, cross_shard_fraction=0.3)
        factory = workload.operation_factory()
        kinds = Counter(factory(t).kind for t in range(2000))
        fraction = kinds["txn"] / 2000
        assert 0.2 < fraction < 0.4
        assert kinds["txn"] + kinds["put"] + kinds["get"] == 2000

    def test_zero_fraction_emits_no_transactions(self):
        factory = sharded_kv(seed=4, cross_shard_fraction=0.0).operation_factory()
        assert all(factory(t).kind != "txn" for t in range(500))

    def test_transactions_span_shards_when_partitioned(self):
        partitioner = HashPartitioner(num_shards=4)
        workload = sharded_kv(
            seed=4, cross_shard_fraction=1.0, partitioner=partitioner
        )
        factory = workload.operation_factory()
        for timestamp in range(300):
            operation = factory(timestamp)
            owners = {partitioner.shard_of_key(write[1]) for write in operation.args}
            assert len(owners) >= 2, f"transaction {operation.args} stayed on one shard"

    def test_with_partitioner_returns_a_configured_copy(self):
        base = sharded_kv(seed=4)
        partitioner = HashPartitioner(num_shards=2)
        attached = base.with_partitioner(partitioner)
        assert base.partitioner is None
        assert attached.partitioner is partitioner
        assert attached.cross_shard_fraction == base.cross_shard_fraction

    def test_state_machine_is_transactional(self):
        machine = sharded_kv().state_machine_factory()()
        assert isinstance(machine, TransactionalKeyValueStore)

    def test_validation(self):
        with pytest.raises(ValueError):
            sharded_kv(cross_shard_fraction=1.5)
        with pytest.raises(ValueError):
            ShardedKeyValueWorkload(name="bad", txn_size=1).operation_factory()

    def test_deterministic_per_client_seed(self):
        first = sharded_kv(seed=8, cross_shard_fraction=0.5).operation_factory(2)
        second = sharded_kv(seed=8, cross_shard_fraction=0.5).operation_factory(2)
        assert [repr(first(t)) for t in range(100)] == [repr(second(t)) for t in range(100)]


class TestWorkloadSpec:
    def test_build_from_string_is_micro(self):
        from repro.workload.generator import Workload

        workload = Workload.build("0/4")
        assert isinstance(workload, Workload)
        assert workload.name == "0/4"
        assert workload.reply_payload_bytes == 4 * 1024

    def test_build_kv(self):
        from repro.workload.generator import Workload, WorkloadSpec

        workload = Workload.build(
            WorkloadSpec(kind="kv", key_space=50, read_fraction=1.0, seed=2)
        )
        assert isinstance(workload, KeyValueWorkload)

    def test_build_sharded_kv(self):
        from repro.workload.generator import Workload, WorkloadSpec

        workload = Workload.build(
            WorkloadSpec(kind="sharded-kv", cross_shard_fraction=0.25, seed=2)
        )
        assert isinstance(workload, ShardedKeyValueWorkload)

    def test_invalid_kind_rejected(self):
        from repro.workload.generator import WorkloadSpec

        with pytest.raises(ValueError):
            WorkloadSpec(kind="nope")

    def test_invalid_read_fraction_rejected(self):
        from repro.workload.generator import WorkloadSpec

        with pytest.raises(ValueError):
            WorkloadSpec(kind="kv", read_fraction=1.5)
