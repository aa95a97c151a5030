"""Ablation: dynamic mode switching under load (Section 5.4).

Not a numbered figure in the paper, but an ablation of one of its design
choices: the ability to move between modes at run time.  The experiment
runs the 0/0 micro-benchmark, switches Lion -> Dog -> Peacock -> Lion while
clients keep issuing requests, and reports the throughput observed in each
phase plus the cost (completed-request dip) around each switch.
"""

import pytest

from repro.analysis import format_results_table
from repro.cluster import build_seemore
from repro.core import Mode
from repro.workload import Workload

PHASE_LENGTH = 0.35
SCHEDULE = [Mode.DOG, Mode.PEACOCK, Mode.LION]


def run_mode_switch_experiment():
    deployment = build_seemore(
        crash_tolerance=1,
        byzantine_tolerance=1,
        mode=Mode.LION,
        workload=Workload.build("0/0"),
        num_clients=6,
        seed=50,
        client_timeout=0.1,
    )
    config = deployment.group().config
    simulator = deployment.simulator
    deployment.start_clients()

    phases = []
    boundary = 0.0
    current_mode = Mode.LION
    simulator.run(until=PHASE_LENGTH)
    phases.append((current_mode, boundary, PHASE_LENGTH))
    boundary = PHASE_LENGTH

    for target in SCHEDULE:
        initiator = next(
            deployment.replicas[r]
            for r in config.private_replicas
            if not deployment.replicas[r].crashed
        )
        initiator.request_mode_switch(target)
        end = boundary + PHASE_LENGTH
        simulator.run(until=end)
        phases.append((target, boundary, end))
        boundary = end

    deployment.stop_clients()
    deployment.assert_safe()

    rows = []
    for mode, start, end in phases:
        completed = len(
            [r for r in deployment.metrics.records if start <= r.completed_at < end]
        )
        rows.append(
            {
                "phase": f"{start:.2f}-{end:.2f}s",
                "mode": mode.name,
                "completed": completed,
                "throughput_kreqs_per_s": round(completed / (end - start) / 1000, 3),
            }
        )
    final_modes = {replica.mode for replica in deployment.correct_replicas()}
    return rows, final_modes


@pytest.mark.benchmark(group="ablation")
def test_ablation_dynamic_mode_switching(benchmark, report):
    rows, final_modes = benchmark.pedantic(run_mode_switch_experiment, rounds=1, iterations=1)

    report.section("Ablation: dynamic mode switching (Lion -> Dog -> Peacock -> Lion)")
    report.block(format_results_table(rows))

    assert final_modes == {Mode.LION}
    # Every phase keeps making progress: switching modes never halts the service.
    assert all(row["completed"] > 50 for row in rows)
    # The throughput penalty of living through two view changes per phase is
    # bounded: no phase collapses below a third of the best phase.
    throughputs = [row["throughput_kreqs_per_s"] for row in rows]
    assert min(throughputs) > max(throughputs) / 3.0
