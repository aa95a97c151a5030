"""Keyspace sharding across independently configured SeeMoRe clusters.

A single 3m+2c+1 cluster bounds throughput no matter how cheap its mode
is; the sharding subsystem scales *out* instead: the replicated key-value
state is partitioned across N SeeMoRe clusters, each free to run the mode
(Lion / Dog / Peacock) and fault thresholds its own trust mix calls for.

* :mod:`~repro.shard.partition` — deterministic keyspace partitioners
  (hash and range policies);
* :mod:`~repro.shard.router` — client-side mapping of operations to the
  owning shard(s);
* :mod:`~repro.shard.coordinator` — the deterministic two-phase protocol
  committing multi-key operations that span shards, with every prepare and
  decide record ordered through the participating shard's own consensus;
* :mod:`~repro.shard.client` — the routed client (the single-cluster
  client with one :class:`~repro.smr.client.Session` per shard) and its pool;
* :mod:`~repro.shard.deployment` — :class:`ShardedDeployment`, composing N
  per-shard :class:`~repro.cluster.deployment.Deployment` objects on one
  simulator with aggregate safety and atomicity checks.

Deployments are built by
:func:`repro.cluster.builders.build_sharded_seemore`.
"""

from repro.shard.client import ShardedClient, ShardedClientPool
from repro.shard.coordinator import (
    CoordinatorStats,
    CrossShardCoordinator,
    TransactionRecord,
)
from repro.shard.deployment import ShardedDeployment, ShardSpec
from repro.shard.partition import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    make_partitioner,
)
from repro.shard.router import DEFAULT_SHARD, ShardRouter

__all__ = [
    "Partitioner",
    "HashPartitioner",
    "RangePartitioner",
    "make_partitioner",
    "ShardRouter",
    "DEFAULT_SHARD",
    "CrossShardCoordinator",
    "CoordinatorStats",
    "TransactionRecord",
    "ShardedClient",
    "ShardedClientPool",
    "ShardedDeployment",
    "ShardSpec",
]
