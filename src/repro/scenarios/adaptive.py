"""Fault scenarios that gate the adaptive mode controller.

Every scenario here names ``adaptive=LIBRARY_POLICY``, so its deployment is
built with a live :class:`~repro.adaptive.AdaptiveModeController` per group,
and holds the *controller* to account with declarative expectations layered
on the scenario engine:

* :data:`ESCALATE_ON_EQUIVOCATION` -- an injected equivocator must drive
  Lion → Peacock, with zero safety violations along the way;
* :data:`DEESCALATE_AFTER_QUIET_PERIOD` -- once the attack subsides, a full
  quiet period must bring the group back to Lion (the full
  escalate→de-escalate cycle of the acceptance criterion);
* :data:`OSCILLATING_ATTACKER_MUST_NOT_FLAP` -- an attacker toggling on and
  off faster than the quiet period must produce *one* escalation, not a
  mode oscillation (hysteresis + cooldown);
* :data:`CONTROLLER_UNDER_VIEW_CHANGE_STORM` -- successive primary crashes
  are churn, not malice: the controller may off-load to Dog but must never
  read the storm as Byzantine evidence and jump to Peacock;
* :data:`PER_SHARD_DIVERGENT_ENVIRONMENTS` -- in a sharded deployment only
  the attacked shard escalates; the clean shard's controller must not
  move.

All scenarios start in the Lion mode (the cheap steady state the paper de-
escalates to); the standard invariant checkers run throughout, so every
controller decision is made under the same safety scrutiny as any other
fault scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List

from repro.adaptive import AdaptivePolicy
from repro.core.modes import Mode
from repro.scenarios.engine import (
    Expectation,
    ProgressAfter,
    Scenario,
    ShardExpects,
    TransactionsAtLeast,
    judged_replicas,
)
from repro.scenarios.events import Byzantine, Crash, OnShard, Recover, RestoreHonest
from repro.scenarios.sharded import SHARDED_BASE

#: Policy used by the library scenarios.  Mirrors the defaults but is named
#: so tests, the count goldens, and the README can reference one object.
LIBRARY_POLICY = AdaptivePolicy()


def _controller_of(deployment, shard):
    controller = deployment.group(shard).adaptive
    if controller is None:
        raise AssertionError(
            "a controller expectation ran against a deployment without a "
            "controller; the scenario (or the builder) must name adaptive=..."
        )
    return controller


# -- controller expectations ------------------------------------------------------


@dataclass(frozen=True)
class ControllerEscalated(Expectation):
    """The controller initiated -- and the group completed -- a switch to ``to_mode``."""

    to_mode: Mode = Mode.PEACOCK

    def evaluate(self, deployment, probes, shard=None) -> List[str]:
        controller = _controller_of(deployment, shard)
        if any(d.to_mode is self.to_mode and d.applied for d in controller.decisions):
            return []
        return [
            f"controller never completed a switch to {self.to_mode.name} "
            f"(decisions: {controller.decision_rows()})"
        ]


@dataclass(frozen=True)
class FinalModeIs(Expectation):
    """Every correct replica ends the run in ``mode`` (absolute, not cycled)."""

    mode: Mode = Mode.LION

    def evaluate(self, deployment, probes, shard=None) -> List[str]:
        wrong = {
            replica.node_id: replica.mode.name
            for replica in judged_replicas(deployment, shard)
            if replica.mode is not self.mode
        }
        if wrong:
            return [f"replicas not in mode {self.mode.name}: {wrong}"]
        return []


@dataclass(frozen=True)
class ModeCycleCompleted(Expectation):
    """The group entered ``through`` and later returned to ``back_to``."""

    through: Mode = Mode.PEACOCK
    back_to: Mode = Mode.LION

    def evaluate(self, deployment, probes, shard=None) -> List[str]:
        controller = _controller_of(deployment, shard)
        entered = [to for (_, _, to) in controller.mode_transitions]
        if self.through not in entered:
            return [
                f"group never entered {self.through.name} "
                f"(transitions: {controller.mode_transitions})"
            ]
        index = entered.index(self.through)
        if self.back_to not in entered[index + 1:]:
            return [
                f"group never returned to {self.back_to.name} after "
                f"{self.through.name} (transitions: {controller.mode_transitions})"
            ]
        return []


@dataclass(frozen=True)
class TransitionsAtMost(Expectation):
    """No flapping: at most ``limit`` observed mode transitions."""

    limit: int = 2

    def evaluate(self, deployment, probes, shard=None) -> List[str]:
        controller = _controller_of(deployment, shard)
        if len(controller.mode_transitions) <= self.limit:
            return []
        return [
            f"mode flapped: {len(controller.mode_transitions)} transitions "
            f"(limit {self.limit}): {controller.mode_transitions}"
        ]


@dataclass(frozen=True)
class NeverEntered(Expectation):
    """The group never transitioned into ``mode``."""

    mode: Mode = Mode.PEACOCK

    def evaluate(self, deployment, probes, shard=None) -> List[str]:
        controller = _controller_of(deployment, shard)
        entered = [to for (_, _, to) in controller.mode_transitions]
        if self.mode in entered or any(
            d.to_mode is self.mode for d in controller.decisions
        ):
            return [
                f"controller moved toward {self.mode.name} "
                f"(decisions: {controller.decision_rows()})"
            ]
        return []


# -- single-cluster scenarios -----------------------------------------------------

ESCALATE_ON_EQUIVOCATION = Scenario(
    name="adaptive-escalate-on-equivocation",
    description="An equivocating public replica attacks a quiet Lion group; the "
    "controller must read the conflicting-vote evidence and escalate to Peacock.",
    events=(Byzantine(at=0.1, target="public-backup", strategy="equivocate"),),
    expectations=(
        ControllerEscalated(to_mode=Mode.PEACOCK),
        FinalModeIs(mode=Mode.PEACOCK),
        ProgressAfter(at=0.45),
    ),
    duration=0.7,
    # Settle must stay below the policy's quiet period: once the clients
    # stop, evidence dries up by construction, and a longer settle would
    # let the controller (correctly) de-escalate before the final check.
    settle=0.2,
    num_clients=3,
    adaptive=LIBRARY_POLICY,
)

DEESCALATE_AFTER_QUIET_PERIOD = Scenario(
    name="adaptive-de-escalate-after-quiet-period",
    description="The attack subsides mid-run; after a full quiet period the "
    "controller must bring the group back to Lion -- the complete "
    "escalate→de-escalate cycle.",
    events=(
        Byzantine(at=0.1, target="public-backup", strategy="equivocate"),
        RestoreHonest(at=0.35),
    ),
    expectations=(
        ModeCycleCompleted(through=Mode.PEACOCK, back_to=Mode.LION),
        FinalModeIs(mode=Mode.LION),
        ProgressAfter(at=0.8),
    ),
    duration=1.1,
    settle=0.3,
    num_clients=3,
    adaptive=LIBRARY_POLICY,
)

OSCILLATING_ATTACKER_MUST_NOT_FLAP = Scenario(
    name="adaptive-oscillating-attacker-must-not-flap",
    description="An attacker toggles on and off faster than the quiet period; "
    "hysteresis and cooldown must hold the group in Peacock instead of "
    "oscillating with the attacker.",
    # public-3 is the last replica the rotating Peacock primary role reaches,
    # so the attacker stays an ordinary proxy whose vote equivocation is
    # continuously wire-visible; an attacker that becomes the Peacock
    # primary is deposed by the first view change and goes silent, which
    # would end the oscillation the scenario is about.
    events=(
        Byzantine(at=0.1, target="public-3", strategy="equivocate"),
        RestoreHonest(at=0.25),
        Byzantine(at=0.4, target="public-3", strategy="equivocate"),
        RestoreHonest(at=0.55),
        Byzantine(at=0.7, target="public-3", strategy="equivocate"),
        RestoreHonest(at=0.85),
    ),
    expectations=(
        ControllerEscalated(to_mode=Mode.PEACOCK),
        TransitionsAtMost(limit=2),
        ProgressAfter(at=0.6),
    ),
    duration=1.0,
    settle=0.2,
    num_clients=3,
    adaptive=LIBRARY_POLICY,
)

CONTROLLER_UNDER_VIEW_CHANGE_STORM = Scenario(
    name="adaptive-controller-under-view-change-storm",
    description="Two successive primaries crash: pure churn.  The controller may "
    "off-load agreement to Dog but must never mistake the storm for Byzantine "
    "evidence and jump to Peacock.",
    crash_tolerance=2,
    byzantine_tolerance=2,
    events=(
        Crash(at=0.1, target="primary"),
        Crash(at=0.3, target="primary"),
        Recover(at=0.55, target="private:0"),
        Recover(at=0.6, target="private:1"),
    ),
    expectations=(
        NeverEntered(mode=Mode.PEACOCK),
        ProgressAfter(at=0.75),
    ),
    duration=1.0,
    settle=0.3,
    num_clients=3,
    adaptive=LIBRARY_POLICY,
)


#: Single-cluster adaptive scenarios, in presentation order.
ADAPTIVE_SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        ESCALATE_ON_EQUIVOCATION,
        DEESCALATE_AFTER_QUIET_PERIOD,
        OSCILLATING_ATTACKER_MUST_NOT_FLAP,
        CONTROLLER_UNDER_VIEW_CHANGE_STORM,
    )
}


# -- the sharded scenario ----------------------------------------------------------

PER_SHARD_DIVERGENT_ENVIRONMENTS = replace(
    SHARDED_BASE,
    name="adaptive-per-shard-divergent-environments",
    description="Two Lion shards, one attacked by an equivocator: the attacked "
    "shard's controller must escalate it to Peacock while the clean shard's "
    "controller holds it in Lion.",
    modes=(Mode.LION, Mode.LION),
    events=(
        OnShard(
            at=0.1,
            shard=0,
            event=Byzantine(at=0.0, target="public-backup", strategy="equivocate"),
        ),
    ),
    expectations=(
        TransactionsAtLeast("committed", 1),
        ShardExpects(0, FinalModeIs(mode=Mode.PEACOCK)),
        ShardExpects(1, FinalModeIs(mode=Mode.LION)),
        # The clean shard must not switch at all without local evidence.
        ShardExpects(1, TransitionsAtMost(limit=0)),
    ),
    duration=0.8,
    # Below the quiet period: evidence stops with the clients, and a longer
    # settle would let the attacked shard de-escalate before the check.
    settle=0.2,
    adaptive=LIBRARY_POLICY,
)


__all__ = [
    "LIBRARY_POLICY",
    "ControllerEscalated",
    "FinalModeIs",
    "ModeCycleCompleted",
    "TransitionsAtMost",
    "NeverEntered",
    "ESCALATE_ON_EQUIVOCATION",
    "DEESCALATE_AFTER_QUIET_PERIOD",
    "OSCILLATING_ATTACKER_MUST_NOT_FLAP",
    "CONTROLLER_UNDER_VIEW_CHANGE_STORM",
    "PER_SHARD_DIVERGENT_ENVIRONMENTS",
    "ADAPTIVE_SCENARIOS",
]
