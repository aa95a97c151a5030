#!/usr/bin/env python3
"""The adaptive mode controller closing the loop of Section 5.4.

The scenario: a deployment hums along in the cheap **Lion** mode.  A
rented public-cloud replica turns Byzantine and starts equivocating on
its votes; correct replicas flag the conflicting votes as evidence, the
controller estimates an active Byzantine environment and escalates the
group to **Peacock** through the ordinary consensus-ordered mode switch.
When the attack subsides and a full quiet period passes, the controller
de-escalates back to **Lion** — nobody scripted either switch.

The example prints throughput per phase, the evidence the controller
aggregated, and its decision table, then verifies safety held throughout.

Run with:  python examples/adaptive_cluster.py
"""

from repro import Mode, build_seemore
from repro.adaptive import AdaptivePolicy
from repro.analysis import format_adaptive_decisions
from repro.faults import make_byzantine, restore_honest
from repro.workload import Workload


def completed_between(deployment, start, end):
    return len([r for r in deployment.metrics.records if start <= r.completed_at < end])


def main() -> None:
    print("=== Adaptive mode switching ===\n")

    deployment = build_seemore(
        crash_tolerance=1,
        byzantine_tolerance=1,
        mode=Mode.LION,
        workload=Workload.build("0/0"),
        num_clients=4,
        seed=21,
        client_timeout=0.1,
        adaptive=AdaptivePolicy(),  # or adaptive=True for the same defaults
    )
    controller = deployment.group().adaptive
    simulator = deployment.simulator
    deployment.start_clients()

    # Phase 1: quiet environment, Lion.
    phase_start = simulator.now
    deployment.run(0.25)
    print(f"phase 1 (quiet, {controller.current_mode().name}): "
          f"{completed_between(deployment, phase_start, simulator.now)} requests")

    # Phase 2: a public replica starts equivocating on its votes.
    attacker = "public-3"
    make_byzantine(deployment.group(), attacker, "equivocate")
    phase_start = simulator.now
    deployment.run(0.3)
    print(f"phase 2 (attack by {attacker}, now {controller.current_mode().name}): "
          f"{completed_between(deployment, phase_start, simulator.now)} requests")

    # Phase 3: the attack subsides; after the quiet period the controller
    # brings the group back to the cheap mode on its own.
    restore_honest(deployment.group(), attacker)
    phase_start = simulator.now
    deployment.run(0.6)
    print(f"phase 3 (quiet again, back to {controller.current_mode().name}): "
          f"{completed_between(deployment, phase_start, simulator.now)} requests")

    deployment.stop_clients()
    deployment.run(0.2)

    counts = controller.estimator.counts_by_kind()
    print("\nevidence admitted:",
          ", ".join(f"{kind.value}={count}" for kind, count in sorted(
              counts.items(), key=lambda item: item[0].value)))
    print()
    print(format_adaptive_decisions(controller.decisions))

    deployment.assert_safe()
    print("\nsafety: no conflicting commits among correct replicas")
    assert controller.current_mode() is Mode.LION, "expected to end back in Lion"


if __name__ == "__main__":
    main()
