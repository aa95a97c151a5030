#!/usr/bin/env python3
"""A replicated key-value store on a hybrid cloud, with failures injected.

This example plays the role of the small enterprise from the paper's
introduction: it owns a couple of trusted servers, rents public-cloud
capacity, and wants a replicated key-value store that keeps working when a
private server crashes *and* a rented server turns malicious.

The example:

1. uses the Section 4 planner to size the public-cloud rental;
2. deploys SeeMoRe (Lion mode) with a key-value workload;
3. crashes one private replica and makes one public replica Byzantine
   mid-run, at the tolerated bounds;
4. shows that clients keep completing requests and that all correct
   replicas end with identical key-value state.

Run with:  python examples/hybrid_kv_store.py
"""

from repro import Mode, build_seemore, plan_with_failure_ratio
from repro.faults import crash_replica, make_byzantine
from repro.workload import Workload, WorkloadSpec


def main() -> None:
    print("=== Replicated key-value store on a hybrid cloud ===\n")

    # --- 1. plan the rental (Section 4) -----------------------------------
    plan = plan_with_failure_ratio(private_size=2, crash_tolerance=1, malicious_ratio=0.3)
    print("cloud plan:", plan.rationale)
    print(f"  rent {plan.public_nodes} public nodes "
          f"(tolerating m={plan.byzantine_tolerance} Byzantine failures); "
          f"total network {plan.network_size}\n")

    # --- 2. deploy the store ----------------------------------------------
    # For the running example we deploy the paper's evaluation layout
    # (c = m = 1, N = 6) with a 50/50 read-write key-value workload.
    deployment = build_seemore(
        crash_tolerance=1,
        byzantine_tolerance=1,
        mode=Mode.LION,
        workload=Workload.build(
            WorkloadSpec(kind="kv", key_space=500, value_size=128, read_fraction=0.5, seed=7)
        ),
        num_clients=6,
        seed=7,
        client_timeout=0.1,
    )
    config = deployment.group().config
    simulator = deployment.simulator

    deployment.start_clients()
    simulator.run(until=0.3)
    healthy_completed = deployment.metrics.completed
    print(f"healthy phase      : {healthy_completed} requests completed in 0.3 s")

    # --- 3. inject the faults the deployment must tolerate ------------------
    crashed = config.private_replicas[1]
    byzantine = config.public_replicas[1]
    crash_replica(deployment.group(), crashed)
    make_byzantine(deployment.group(), byzantine, "lie")
    print(f"faults injected    : crashed {crashed} (private), {byzantine} now lies to clients")

    simulator.run(until=1.2)
    deployment.stop_clients()
    total_completed = deployment.metrics.completed
    print(f"after faults       : {total_completed - healthy_completed} more requests completed")

    # --- 4. verify convergence ----------------------------------------------
    deployment.assert_safe()
    fully_executed = max(replica.last_executed for replica in deployment.correct_replicas())
    snapshots = {
        replica.node_id: replica.executor.state_machine.snapshot()
        for replica in deployment.correct_replicas()
        if replica.last_executed == fully_executed
    }
    reference = next(iter(snapshots.values()))
    agree = all(snapshot == reference for snapshot in snapshots.values())
    print(f"replica state      : {len(reference)} keys; "
          f"{len(snapshots)} caught-up correct replicas "
          f"{'agree' if agree else 'DISAGREE'} on the full key-value state")
    print("safety             : no conflicting commits among correct replicas")

    summary = deployment.metrics.latency()
    print(f"latency            : mean {summary.mean * 1000:.3f} ms, "
          f"p99 {summary.p99 * 1000:.3f} ms over {summary.count} requests")


if __name__ == "__main__":
    main()
