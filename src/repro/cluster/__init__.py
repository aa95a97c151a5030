"""Experiment harness: deployment builders and runners.

This package stands up a complete simulated deployment -- network, replica
group, clients -- for any protocol in the repository, and runs the
measurement loops used by the benchmarks:

* :func:`~repro.cluster.builders.build_seemore` and the baseline builders
  create a :class:`~repro.cluster.deployment.Deployment` (every group, on
  every backend, is wired by :func:`repro.cluster.wiring.wire_group`);
* :func:`~repro.cluster.runner.run_deployment` drives it (single cluster
  or sharded) for a stretch of simulated time and
  :func:`~repro.cluster.runner.run_open_loop` does the same under an
  open-loop driver; both return the one
  :class:`~repro.cluster.runner.RunResult`;
* :func:`~repro.cluster.runner.sweep_clients` repeats that for increasing
  client counts, producing the latency-throughput curves of Figures 2-3.

A run with faults on a clock -- Figure 4's crashed primary included -- is a
:class:`repro.scenarios.Scenario` handed to
:func:`repro.scenarios.run_scenario` (which takes any of these deployments
pre-built); the per-bin throughput timeline is
``deployment.metrics.timeline(...)`` afterwards.
"""

from repro.cluster.deployment import Deployment
from repro.cluster.builders import (
    build_paxos,
    build_pbft,
    build_seemore,
    build_sharded_seemore,
    build_upright,
    builder_for,
)
from repro.cluster.runner import (
    RunResult,
    run_deployment,
    run_open_loop,
    run_sharded_deployment,
    sweep_clients,
)

__all__ = [
    "Deployment",
    "build_seemore",
    "build_sharded_seemore",
    "build_paxos",
    "build_pbft",
    "build_upright",
    "builder_for",
    "RunResult",
    "run_deployment",
    "run_open_loop",
    "run_sharded_deployment",
    "sweep_clients",
]
