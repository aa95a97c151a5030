#!/usr/bin/env python3
"""A sharded key-value store: four SeeMoRe clusters, one keyspace.

The paper sizes ONE cluster for one trust mix; this example plays the
operator who has outgrown it: traffic no longer fits a single 3m+2c+1
group, so the keyspace is hash-partitioned across four clusters — each
free to run its own mode — and multi-key writes spanning shards commit
through the deterministic two-phase protocol, with every prepare/decide
record ordered by the participating shard's own consensus.

The example is one declarative ``Scenario`` -- the same type, and the same
``run_scenario`` engine, as every fault scenario in the library; naming a
mode per shard is what makes it sharded:

1. it deploys 4 shards with mixed modes (Lion, Lion, Dog, Peacock) and a
   Zipfian key-value workload with 10% cross-shard transactions;
2. it isolates one shard mid-run and heals it, showing transactions abort
   atomically while the rest of the keyspace keeps serving;
3. the standing checkers verify per-shard safety and cross-shard atomicity
   throughout, and the report shows per-shard and aggregate load plus the
   2PC counters.

Run with:  python examples/sharded_kv_store.py
"""

from repro.analysis import format_results_table, format_scenario_results
from repro.core import Mode
from repro.scenarios import (
    HealPartition,
    IsolateShard,
    Scenario,
    TransactionsAtLeast,
    run_scenario,
)
from repro.workload import WorkloadSpec, per_shard_load

SCENARIO = Scenario(
    name="sharded-kv-store",
    description="Four mixed-mode shards serve one Zipfian keyspace; shard 3 is "
    "isolated at t=0.4s and healed at t=0.7s.",
    modes=(Mode.LION, Mode.LION, Mode.DOG, Mode.PEACOCK),
    events=(IsolateShard(at=0.4, shard=3), HealPartition(at=0.7)),
    expectations=(TransactionsAtLeast("committed", 1), TransactionsAtLeast("aborted", 1)),
    duration=1.2,
    settle=0.3,
    num_clients=8,
    client_window=2,
    workload=WorkloadSpec(
        kind="sharded-kv", key_space=1000, cross_shard_fraction=0.1, key_distribution="zipfian"
    ),
    seed=13,  # the network's jitter and the key stream alike
    txn_timeout=0.15,
)


def main() -> None:
    print("=== Sharded SeeMoRe: four clusters, one keyspace ===\n")

    deployment = SCENARIO.build()
    print(f"deployed {len(deployment.shards)} shards "
          f"({', '.join(mode.name.lower() for mode in SCENARIO.modes)}), "
          f"{len(deployment.replicas)} replicas total")
    schedule = ", ".join(f"{event.label} at t={event.at}s" for event in SCENARIO.events)
    print(f"schedule: {schedule}\n")

    result = run_scenario(SCENARIO, deployment=deployment)

    print(format_results_table(
        summary.as_row()
        for summary in per_shard_load([shard.metrics for shard in deployment.shards])
    ))
    print()
    print(format_scenario_results([result], title="Sharded deployment"))

    result.assert_ok()
    print("\nper-shard safety and cross-shard atomicity verified: "
          f"{result.transactions['aborted']} transaction(s) aborted "
          "atomically during the isolation, none half-committed")


if __name__ == "__main__":
    main()
