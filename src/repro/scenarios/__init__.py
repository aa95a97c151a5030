"""Deterministic fault-scenario engine (the standing regression net).

SeeMoRe's whole claim is behaviour *under faults*: crash faults in the
trusted private cloud, Byzantine faults in the public cloud, and dynamic
mode switches as the environment changes.  This package turns those
conditions into first-class, declarative scenarios:

* :mod:`~repro.scenarios.events` — timed events scheduled on the simulator
  clock, the one way to put a fault on a clock: crash/recover a replica,
  activate a named Byzantine strategy, partition/heal the network, degrade
  per-link latency, trigger a mode switch, ramp client load, aim any of
  those at one shard or isolate it;
* :mod:`~repro.scenarios.invariants` — checkers sampled continuously while
  a scenario runs: committed prefixes never fork, no correct client accepts
  a forged reply, exactly-once execution per request id, checkpoint digests
  agree — each judged per replica group, whatever the group count — plus
  cross-shard atomicity when the clients are routed;
* :mod:`~repro.scenarios.engine` — :class:`Scenario`, the one scenario type
  (single group or a mode per shard, closed loop or an :class:`OpenLoop`
  section, with or without an adaptive controller; varied with
  ``dataclasses.replace``), :func:`run_scenario`, the one engine that runs
  it — or its schedule against any pre-built deployment, the baselines
  included — and returns the one :class:`ScenarioResult`, plus declarative
  post-run expectations (progress resumed, view advanced, mode installed,
  replica caught up, transactions committed);
* :mod:`~repro.scenarios.library` — the named single-cluster scenarios
  every protocol change must keep passing, across all three modes;
* :mod:`~repro.scenarios.sharded`, :mod:`~repro.scenarios.adaptive`,
  :mod:`~repro.scenarios.openloop` — the sharded, adaptive-controller and
  open-loop surge libraries: more values of the same type.

Quick start::

    from dataclasses import replace
    from repro.core import Mode
    from repro.scenarios import SCENARIOS, SHARDED_SCENARIOS, run_scenario

    result = run_scenario(SCENARIOS["primary-crash-mid-batch"], Mode.DOG)
    result.assert_ok()
    run_scenario(replace(SHARDED_SCENARIOS["shard-isolated-then-heals"], seed=11)).assert_ok()
"""

from repro.scenarios.engine import (
    CaughtUp,
    Expectation,
    ModeIs,
    OpenLoop,
    ProgressAfter,
    Scenario,
    ScenarioResult,
    ShardExpects,
    StateTransferred,
    TransactionsAtLeast,
    ViewAdvanced,
    run_scenario,
    run_scenario_matrix,
)
from repro.scenarios.events import (
    Byzantine,
    ClearLinkDegradation,
    ClientSurge,
    Crash,
    GroupEvent,
    HealPartition,
    IsolateShard,
    LinkDegradation,
    ModeSwitch,
    OnShard,
    Partition,
    Recover,
    ScenarioEvent,
    resolve_target,
)
from repro.scenarios.invariants import (
    CheckpointAgreement,
    CommittedPrefixAgreement,
    CrossShardAtomicity,
    ExactlyOnceExecution,
    InvariantChecker,
    NoForgedReplies,
    default_checkers,
)
from repro.scenarios.library import SCENARIOS, scenario_by_name, scenario_names
from repro.scenarios.sharded import SHARDED_BASE, SHARDED_SCENARIOS

__all__ = [
    # sharded
    "SHARDED_BASE",
    "SHARDED_SCENARIOS",
    "CrossShardAtomicity",
    "OnShard",
    "IsolateShard",
    "TransactionsAtLeast",
    "ShardExpects",
    # engine
    "Scenario",
    "OpenLoop",
    "ScenarioResult",
    "run_scenario",
    "run_scenario_matrix",
    "Expectation",
    "ProgressAfter",
    "ViewAdvanced",
    "ModeIs",
    "StateTransferred",
    "CaughtUp",
    # events
    "ScenarioEvent",
    "GroupEvent",
    "Crash",
    "Recover",
    "Byzantine",
    "Partition",
    "HealPartition",
    "LinkDegradation",
    "ClearLinkDegradation",
    "ModeSwitch",
    "ClientSurge",
    "resolve_target",
    # invariants
    "InvariantChecker",
    "CommittedPrefixAgreement",
    "NoForgedReplies",
    "ExactlyOnceExecution",
    "CheckpointAgreement",
    "default_checkers",
    # library
    "SCENARIOS",
    "scenario_by_name",
    "scenario_names",
]
