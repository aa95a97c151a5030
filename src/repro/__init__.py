"""SeeMoRe: hybrid crash/Byzantine fault-tolerant replication for hybrid clouds.

A faithful Python reproduction of *SeeMoRe: A Fault-Tolerant Protocol for
Hybrid Cloud Environments* (Amiri, Maiyya, Agrawal, El Abbadi — ICDE 2020),
including the protocol in its three modes (Lion, Dog, Peacock), dynamic
mode switching, the public-cloud sizing calculator, the baselines the paper
compares against (Paxos/CFT, PBFT/BFT, S-UpRight), and a deterministic
discrete-event simulation substrate to run and measure them.

Quickstart::

    from repro import Mode, build_seemore, run_deployment

    deployment = build_seemore(crash_tolerance=1, byzantine_tolerance=1,
                               mode=Mode.LION, num_clients=4)
    result = run_deployment(deployment, duration=1.0)
    print(result.throughput_kreqs, "Kreq/s at", result.mean_latency_ms, "ms")
"""

import logging

from repro.core import Mode, SeeMoReConfig, SeeMoReReplica, client_config_for_mode
from repro.planner import (
    CloudPlan,
    plan_with_explicit_failures,
    plan_with_failure_ratio,
    recommend_plan,
)
from repro.cluster import (
    Deployment,
    Group,
    RunResult,
    ShardSpec,
    build_paxos,
    build_pbft,
    build_seemore,
    build_sharded_seemore,
    build_upright,
    builder_for,
    run_deployment,
    run_sharded_deployment,
    sweep_clients,
)
from repro.shard import ShardRouter
from repro.workload import (
    MetricsCollector,
    Workload,
)
from repro.scenarios import (
    SCENARIOS,
    SHARDED_SCENARIOS,
    Scenario,
    run_scenario,
    run_scenario_matrix,
)

__version__ = "1.1.0"

# Lifecycle events (hang-ups, failed dials, worker deaths, view installs) are
# logged under "repro"; silent unless the application configures logging.
logging.getLogger("repro").addHandler(logging.NullHandler())

__all__ = [
    "Mode",
    "SeeMoReConfig",
    "SeeMoReReplica",
    "client_config_for_mode",
    "CloudPlan",
    "plan_with_failure_ratio",
    "plan_with_explicit_failures",
    "recommend_plan",
    "Deployment",
    "Group",
    "RunResult",
    "build_seemore",
    "build_sharded_seemore",
    "build_paxos",
    "build_pbft",
    "build_upright",
    "builder_for",
    "run_deployment",
    "run_sharded_deployment",
    "ShardRouter",
    "ShardSpec",
    "SHARDED_SCENARIOS",
    "sweep_clients",
    "Workload",
    "MetricsCollector",
    "Scenario",
    "SCENARIOS",
    "run_scenario",
    "run_scenario_matrix",
    "__version__",
]
