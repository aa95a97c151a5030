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
  client with one :class:`~repro.smr.client.Session` per shard).

This package is what is *different* about shards and nothing else.  The
replica groups themselves are ordinary :class:`~repro.cluster.wiring.Group`
records, each configured by a :class:`~repro.cluster.wiring.ShardSpec`; N
of them on one fabric are the one
:class:`~repro.cluster.deployment.Deployment` (its ``router`` set), built
by :func:`repro.cluster.builders.build_sharded_seemore`; and routed clients
come from the one :class:`~repro.workload.client_pool.ClientPool`.
"""

from repro.shard.client import ShardedClient
from repro.shard.coordinator import (
    CoordinatorStats,
    CrossShardCoordinator,
    TransactionRecord,
)
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
]
