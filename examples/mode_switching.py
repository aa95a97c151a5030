#!/usr/bin/env python3
"""Dynamic mode switching under a changing environment (Section 5.4).

The scenario: an enterprise starts in the **Lion** mode (fewest phases and
messages).  Later the private cloud becomes heavily loaded, so a trusted
replica switches the protocol to the **Dog** mode to push the agreement
work onto the public cloud; when the cross-cloud link becomes slow, it
switches again to the **Peacock** mode so requests never leave the public
cloud; finally it switches back to Lion when things calm down.

The example prints the throughput observed in each phase and verifies that
safety holds across every switch.

Run with:  python examples/mode_switching.py
"""

from repro import Mode, build_seemore
from repro.workload import Workload


def completed_between(deployment, start, end):
    return len([r for r in deployment.metrics.records if start <= r.completed_at < end])


def main() -> None:
    print("=== Dynamic mode switching ===\n")

    deployment = build_seemore(
        crash_tolerance=1,
        byzantine_tolerance=1,
        mode=Mode.LION,
        workload=Workload.build("0/0"),
        num_clients=6,
        seed=21,
        client_timeout=0.1,
    )
    config = deployment.group().config
    simulator = deployment.simulator
    trusted = deployment.replicas[config.private_replicas[0]]

    phases = [
        (Mode.DOG, 0.4, "private cloud becomes loaded -> delegate agreement to proxies"),
        (Mode.PEACOCK, 0.8, "cross-cloud latency grows -> keep agreement in the public cloud"),
        (Mode.LION, 1.2, "load drops -> return to the cheapest mode"),
    ]

    deployment.start_clients()
    simulator.run(until=0.4)
    previous_boundary = 0.0
    print(f"[t=0.0-0.4s]  mode=LION     completed={completed_between(deployment, 0.0, 0.4):5d}")

    boundary = 0.4
    for target_mode, until, reason in phases:
        initiator = next(
            deployment.replicas[r]
            for r in config.private_replicas
            if not deployment.replicas[r].crashed
        )
        initiator.request_mode_switch(target_mode)
        next_until = until + 0.4
        simulator.run(until=next_until)
        completed = completed_between(deployment, boundary, next_until)
        modes = {replica.mode.name for replica in deployment.correct_replicas()}
        print(f"[t={boundary:.1f}-{next_until:.1f}s]  mode={target_mode.name:<8} "
              f"completed={completed:5d}   ({reason}; replicas now in {modes})")
        boundary = next_until

    deployment.stop_clients()
    deployment.assert_safe()
    print(f"\ntotal completed requests: {deployment.metrics.completed}")
    print("safety held across every mode switch (no conflicting commits).")


if __name__ == "__main__":
    main()
