"""Scale-out proof: sharding multiplies committed-ops per simulated second.

The acceptance bar for the sharding subsystem: a 4-shard deployment with
f=1 per shard must sustain at least 3x the single-cluster committed
operations per *simulated* second on a 100%-single-shard workload.  The
measurement is simulated-time throughput, so it is fully deterministic —
wall-clock noise cannot flake this test.
"""

import pytest

from repro.cluster import build_sharded_seemore, run_deployment
from repro.core import BatchPolicy
from repro.workload import Workload, WorkloadSpec

pytestmark = [pytest.mark.shard, pytest.mark.integration]

_CLIENTS_PER_SHARD = 4
_DURATION = 0.25
_WARMUP = 0.05


def _committed_per_sim_second(num_shards: int) -> float:
    deployment = build_sharded_seemore(
        num_shards=num_shards,
        num_clients=_CLIENTS_PER_SHARD * num_shards,
        seed=3,
        client_window=16,
        batch_policy=BatchPolicy(max_batch=16, linger=0.002),
        workload=Workload.build(
            WorkloadSpec(kind="sharded-kv", seed=3, cross_shard_fraction=0.0)
        ),
    )
    result = run_deployment(deployment, duration=_DURATION, warmup=_WARMUP)
    return result.completed / _DURATION


def test_four_shards_scale_past_three_x_single_cluster():
    single = _committed_per_sim_second(num_shards=1)
    sharded = _committed_per_sim_second(num_shards=4)
    ratio = sharded / single
    assert single > 1000, f"single-cluster baseline unreasonably low: {single}"
    assert ratio >= 3.0, (
        f"4-shard deployment sustained only {ratio:.2f}x the single-cluster "
        f"committed-ops/sim-second ({sharded:.0f} vs {single:.0f})"
    )
