#!/usr/bin/env python3
"""A real SeeMoRe cluster: six replicas speaking TCP on loopback.

Everything else in ``examples/`` runs on the deterministic discrete-event
simulator.  This example runs the *same protocol code* on the asyncio
runtime backend instead: each replica has its own TCP listener on
127.0.0.1 in one event loop, messages are real bytes (the binary wire
codec plus a signature envelope), timers are real monotonic-clock timers,
and a closed-loop client drives load until at least 100 requests commit.

Run with:  PYTHONPATH=src python examples/real_cluster.py
"""

from repro.cluster.wiring import ShardSpec, new_keystore, wire_group
from repro.core import Mode
from repro.net.topology import Placement
from repro.runtime.aio import AioRuntime
from repro.smr.ledger import find_safety_violations
from repro.workload.client_pool import ClientPool
from repro.workload.generator import Workload

NUM_REQUESTS = 120
WINDOW = 4


def main() -> None:
    print("=== SeeMoRe over real loopback TCP ===\n")

    # The paper's smallest hybrid deployment, c = m = 1: a 2-replica private
    # cloud (the trusted primary lives there) and 4 public replicas — six
    # TCP servers in total.  Real seconds for the view-change timer:
    # loopback jitter must not look like a fault.
    settings = ShardSpec(mode=Mode.LION, request_timeout=5.0)

    # The same wiring function the simulated builders, the proc workers and
    # the conformance oracle use; only the runtime differs.
    runtime = AioRuntime()
    workload = Workload.build("0/0")
    keystore = new_keystore("real-cluster", 0)
    group = wire_group(runtime, keystore, "seemore", settings, workload)
    config, replicas = group.config, group.replicas
    print(f"replica group: {config.network_size} replicas "
          f"({config.private_size} private, {config.public_size} public)")
    print(f"mode: {Mode.LION.name} — trusted primary, c = m = 1\n")

    pool = ClientPool(runtime, keystore, Placement(), [group.client_config(2.0)], workload)
    (client,) = pool.spawn(1, max_requests_each=NUM_REQUESTS, window=WINDOW)

    started = runtime.now
    finished = runtime.run(
        kickoff=client.start,
        until=lambda: client.completed_count >= NUM_REQUESTS,
        timeout=30.0,
    )
    elapsed = runtime.now - started

    if not finished:
        raise SystemExit(
            f"cluster timed out: {client.completed_count}/{NUM_REQUESTS} completed"
        )

    committed = min(replica.committed_count for replica in replicas.values())
    print(f"completed requests : {client.completed_count}")
    print(f"committed (min)    : {committed} per replica")
    print(f"wall time          : {elapsed:.2f} s "
          f"({client.completed_count / elapsed:.0f} req/s over real TCP)")
    print(f"client timeouts    : {client.timeouts}")
    print(f"bytes on the wire  : {runtime.bytes_delivered}")

    assert client.completed_count >= 100, "expected at least 100 commits"
    violations = find_safety_violations(
        [replica.ledger for replica in replicas.values()]
    )
    assert not violations, f"safety violated: {violations[0]}"
    print("\nsafety check       : all six replicas agree on the committed order")
    print("shutdown           : clean (all sockets closed, all tasks reaped)")


if __name__ == "__main__":
    main()
