"""Experiment harness: deployment builders and runners.

This package stands up a complete simulated deployment -- network, replica
groups, clients -- for any protocol in the repository, and runs the
measurement loops used by the benchmarks:

* :func:`repro.cluster.wiring.wire_group` wires one replica group, on every
  backend, from a :class:`~repro.cluster.wiring.ShardSpec` and returns the
  typed :class:`~repro.cluster.wiring.Group` (config, initial mode,
  replicas, faulty set, its own metrics, its adaptive controller);
* :func:`~repro.cluster.builders.build_seemore`, the baseline builders and
  :func:`~repro.cluster.builders.build_sharded_seemore` all create the one
  :class:`~repro.cluster.deployment.Deployment`: the shared fabric once,
  ``shards`` (a tuple of groups; a single cluster is ``(group,)``, reached
  as ``deployment.group()``), one client pool, and a ``router`` exactly
  when the clients are routed over several groups' keyspace;
* :func:`~repro.cluster.runner.run_deployment` drives it (whatever the
  group count, under its closed-loop clients or an open-loop ``driver=``)
  for a stretch of its runtime's time and returns the one
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
from repro.cluster.wiring import Group, ShardSpec
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
    run_sharded_deployment,
    sweep_clients,
)

__all__ = [
    "Deployment",
    "Group",
    "ShardSpec",
    "build_seemore",
    "build_sharded_seemore",
    "build_paxos",
    "build_pbft",
    "build_upright",
    "builder_for",
    "RunResult",
    "run_deployment",
    "run_sharded_deployment",
    "sweep_clients",
]
