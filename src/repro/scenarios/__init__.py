"""Deterministic fault-scenario engine (the standing regression net).

SeeMoRe's whole claim is behaviour *under faults*: crash faults in the
trusted private cloud, Byzantine faults in the public cloud, and dynamic
mode switches as the environment changes.  This package turns those
conditions into first-class, declarative scenarios:

* :mod:`~repro.scenarios.events` — timed events scheduled on the simulator
  clock: crash/recover a replica, activate a named Byzantine strategy,
  partition/heal the network, degrade per-link latency, trigger a mode
  switch, ramp client load;
* :mod:`~repro.scenarios.invariants` — checkers sampled continuously while
  a scenario runs: committed prefixes never fork, no correct client accepts
  a forged reply, exactly-once execution per request id, checkpoint digests
  agree;
* :mod:`~repro.scenarios.engine` — :func:`run_scenario`, the one engine
  that runs every scenario kind and returns the one
  :class:`ScenarioResult`, plus declarative post-run expectations
  (progress resumed, view advanced, mode installed, replica caught up);
* :mod:`~repro.scenarios.library` — the named single-cluster scenarios
  every protocol change must keep passing, across all three modes;
* :mod:`~repro.scenarios.sharded`, :mod:`~repro.scenarios.adaptive`,
  :mod:`~repro.scenarios.openloop` — the sharded, adaptive-controller and
  open-loop surge libraries.  Each scenario kind is pure data that knows
  how to ``build()`` its deployment and name its ``default_checkers()``;
  all of them run through the same :func:`run_scenario`.

Quick start::

    from repro.core import Mode
    from repro.scenarios import SCENARIOS, run_scenario

    result = run_scenario(SCENARIOS["primary-crash-mid-batch"], Mode.DOG)
    result.assert_ok()
    run_scenario(SHARDED_SCENARIOS["shard-isolated-then-heals"]).assert_ok()
"""

from repro.scenarios.engine import (
    CaughtUp,
    Expectation,
    ModeIs,
    ProgressAfter,
    Scenario,
    ScenarioResult,
    StateTransferred,
    ViewAdvanced,
    run_scenario,
    run_scenario_matrix,
)
from repro.scenarios.events import (
    Byzantine,
    ClearLinkDegradation,
    ClientSurge,
    Crash,
    HealPartition,
    LinkDegradation,
    ModeSwitch,
    Partition,
    Recover,
    ScenarioEvent,
    resolve_target,
)
from repro.scenarios.invariants import (
    CheckpointAgreement,
    CommittedPrefixAgreement,
    ExactlyOnceExecution,
    InvariantChecker,
    NoForgedReplies,
    default_checkers,
)
from repro.scenarios.library import SCENARIOS, scenario_by_name, scenario_names
from repro.scenarios.sharded import (
    SHARDED_SCENARIOS,
    CrossShardAtomicity,
    IsolateShard,
    OnShard,
    PerShardInvariants,
    ShardedScenario,
    ShardExpects,
    TransactionsAtLeast,
)

__all__ = [
    # sharded
    "SHARDED_SCENARIOS",
    "ShardedScenario",
    "PerShardInvariants",
    "CrossShardAtomicity",
    "OnShard",
    "IsolateShard",
    "TransactionsAtLeast",
    "ShardExpects",
    # engine
    "Scenario",
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
