#!/usr/bin/env python3
"""Run named fault scenarios and print the matrix report.

The scenario engine (``repro.scenarios``) schedules timed faults — crashes,
Byzantine strategies, partitions, mode switches, load surges — against a
running deployment while invariant checkers sample the system continuously.
This example runs a few library scenarios across all three modes and prints
the summary table; pass scenario names as arguments to pick others.  It then
shows the two ways one scenario becomes another run: ``dataclasses.replace``
varies the frozen value (here the seed of a sharded scenario, which re-draws
its keys), and a pre-built ``deployment=`` points the same schedule at
another protocol (here the PBFT baseline).

Run with:  python examples/fault_scenarios.py [scenario ...]
"""

import sys
from dataclasses import replace

from repro.analysis import format_scenario_results
from repro.cluster import build_pbft
from repro.scenarios import (
    SCENARIOS,
    SHARDED_SCENARIOS,
    run_scenario,
    run_scenario_matrix,
    scenario_by_name,
)

DEFAULT_NAMES = [
    "primary-crash-mid-batch",
    "equivocating-public-primary",
    "mode-switch-under-load",
]


def main() -> None:
    names = sys.argv[1:] or DEFAULT_NAMES
    scenarios = [scenario_by_name(name) for name in names]
    print(f"running {len(scenarios)} scenario(s) x 3 modes "
          f"(library has {len(SCENARIOS)}: {', '.join(SCENARIOS)})\n")
    results = run_scenario_matrix(scenarios)
    print(format_scenario_results(results))

    sharded = SHARDED_SCENARIOS["shard-primary-crash-mid-traffic"]
    crash = SCENARIOS["primary-crash-mid-batch"]
    pbft = build_pbft(num_clients=crash.num_clients, seed=crash.seed, client_timeout=0.1)
    others = [
        run_scenario(sharded),
        run_scenario(replace(sharded, name=f"{sharded.name}@seed=11", seed=11)),
        run_scenario(replace(crash, name=f"{crash.name}@bft"), deployment=pbft),
    ]
    print()
    print(format_scenario_results(others, title="One scenario, other runs"))
    results += others
    if any(not result.ok for result in results):
        sys.exit(1)


if __name__ == "__main__":
    main()
