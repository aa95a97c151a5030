"""Declarative, schedulable fault-scenario events.

Every event is a frozen dataclass with an ``at`` time (simulated seconds
from scenario start) and an :meth:`apply` method that mutates a running
:class:`~repro.cluster.deployment.Deployment`.  The scenario engine
schedules events on the simulator clock, so a scenario is a pure function
of its inputs — the same scenario with the same seed produces the same
trace every time.

Targets are *roles*, resolved at fire time (not at scenario-definition
time), because the replica filling a role changes as views change:

* ``"primary"`` — the primary of the lowest correct view right now;
* ``"public-primary"`` — the current primary when it lives in the public
  cloud (the Peacock mode), otherwise the first public replica that is not
  the primary — i.e. the most primary-like replica that is *allowed* to be
  Byzantine under the paper's hybrid fault model;
* ``"public-backup"`` — the first public-cloud replica that is not the
  current primary;
* ``"private:i"`` / ``"public:i"`` — the i-th replica of that cloud;
* anything else — a literal replica id.

The cloud roles need a configuration that places replicas in clouds
(SeeMoRe's); ``"primary"`` and literal ids resolve on every protocol.

On a sharded deployment :class:`OnShard` aims any of these events at one
shard and :class:`IsolateShard` partitions a whole shard's replica group
away from every other node (clients included), the coarse failure a sharded
system must absorb; deployment-wide events (``HealPartition``,
``ClientSurge``) apply to it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.cluster.deployment import Deployment
from repro.core.modes import Mode
from repro.faults.byzantine import make_byzantine, restore_honest
from repro.faults.crash import crash_replica, current_primary_id, recover_replica
from repro.shard.deployment import ShardedDeployment

#: Cycle used by ``ModeSwitch("next")``: each switch moves one step.
_MODE_CYCLE = (Mode.LION, Mode.DOG, Mode.PEACOCK)


def _cloud_members(deployment: Deployment, cloud: str, target: str) -> Tuple[str, ...]:
    """The replicas of one cloud, for resolving the cloud role ``target``."""
    members = getattr(deployment.extras["config"], f"{cloud}_replicas", None)
    if members is None:
        raise KeyError(
            f"cannot resolve {target!r}: a {deployment.protocol} configuration "
            f"places no replicas in a {cloud} cloud"
        )
    return members


def resolve_target(deployment: Deployment, target: str) -> str:
    """Resolve a role name (see module docstring) to a replica id."""
    if target == "primary":
        return current_primary_id(deployment)
    if target in ("public-primary", "public-backup"):
        public = _cloud_members(deployment, "public", target)
        primary = current_primary_id(deployment)
        if target == "public-primary" and primary in public:
            return primary
        resolved = next((r for r in public if r != primary), None)
        if resolved is None:
            raise KeyError(
                f"cannot resolve {target!r}: no public replica other than the "
                f"current primary in this deployment"
            )
        return resolved
    for cloud in ("private", "public"):
        prefix = f"{cloud}:"
        if target.startswith(prefix):
            return _cloud_members(deployment, cloud, target)[int(target[len(prefix):])]
    if target not in deployment.replicas:
        raise KeyError(f"unknown scenario target {target!r}")
    return target


def _current_mode(deployment: Deployment) -> Mode:
    """The mode the group is operating in (or moving toward).

    Uses the most-progressed correct replica (highest view), so a
    ``ModeSwitch("next")`` that fires while an earlier switch is still
    installing cycles from the mode being installed, not a stale one.
    """
    correct = deployment.correct_replicas()
    if not correct:
        return deployment.extras.get("mode", Mode.LION)
    return max(correct, key=lambda replica: replica.view).mode


@dataclass(frozen=True)
class ScenarioEvent:
    """Base class: one timed action against a running deployment.

    Most events target one cluster; ``HealPartition`` and ``ClientSurge``
    only touch what every deployment kind has (the network, the client
    pool) and apply to a sharded deployment as they are, and
    :class:`OnShard` aims any other event at one shard.
    """

    at: float

    def apply(self, deployment: Deployment) -> None:
        raise NotImplementedError

    @property
    def label(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class Crash(ScenarioEvent):
    """Fail-stop a replica (role-resolved at fire time)."""

    target: str = "primary"

    def apply(self, deployment: Deployment) -> None:
        crash_replica(deployment, resolve_target(deployment, self.target))

    @property
    def label(self) -> str:
        return f"crash({self.target})"


@dataclass(frozen=True)
class Recover(ScenarioEvent):
    """Bring a crashed replica back online."""

    target: str = "primary"

    def apply(self, deployment: Deployment) -> None:
        recover_replica(deployment, resolve_target(deployment, self.target))

    @property
    def label(self) -> str:
        return f"recover({self.target})"


@dataclass(frozen=True)
class Byzantine(ScenarioEvent):
    """Activate a named Byzantine strategy on a public-cloud replica."""

    target: str = "public-backup"
    strategy: str = "silent"

    def apply(self, deployment: Deployment) -> None:
        make_byzantine(deployment, resolve_target(deployment, self.target), self.strategy)

    @property
    def label(self) -> str:
        return f"byzantine({self.target}, {self.strategy})"


@dataclass(frozen=True)
class RestoreHonest(ScenarioEvent):
    """End Byzantine behaviour: the attack subsides.

    Drops the attack rewiring of ``target`` -- or, with the default
    ``target=None``, of *every* replica in the faulty set, which is robust
    to role-resolved targets pointing at a different replica after the
    view changes the attack provoked.  Restored replicas stay in the
    faulty set for conservative safety accounting (like a recovered
    crash); they merely stop producing fresh evidence, which is what lets
    an adaptive controller de-escalate.
    """

    target: Optional[str] = None

    def apply(self, deployment: Deployment) -> None:
        if self.target is None:
            targets = sorted(deployment.faulty_replicas)
        else:
            targets = [resolve_target(deployment, self.target)]
        for replica_id in targets:
            restore_honest(deployment, replica_id)

    @property
    def label(self) -> str:
        return f"restore-honest({self.target or 'all-faulty'})"


@dataclass(frozen=True)
class Partition(ScenarioEvent):
    """Split the network into groups that can only talk internally.

    Groups are tuples of role names/ids, or the shorthand strings
    ``"private"`` / ``"public"`` for a whole cloud.  Nodes named in no
    group (e.g. clients) keep talking to everyone.
    """

    groups: Tuple[Tuple[str, ...], ...] = (("private",), ("public",))

    def _resolve_group(self, deployment: Deployment, group: Tuple[str, ...]) -> set:
        members: set = set()
        for name in group:
            if name in ("private", "public"):
                members.update(_cloud_members(deployment, name, name))
            else:
                members.add(resolve_target(deployment, name))
        return members

    def apply(self, deployment: Deployment) -> None:
        resolved = [self._resolve_group(deployment, group) for group in self.groups]
        deployment.network.conditions.partition(*resolved)

    @property
    def label(self) -> str:
        return f"partition({'|'.join('+'.join(g) for g in self.groups)})"


@dataclass(frozen=True)
class HealPartition(ScenarioEvent):
    """Remove every partition."""

    def apply(self, deployment: Deployment) -> None:
        deployment.network.conditions.heal_partition()

    @property
    def label(self) -> str:
        return "heal-partition"


@dataclass(frozen=True)
class LinkDegradation(ScenarioEvent):
    """Add a fixed extra delay to every replica↔replica link of a class.

    ``link_class`` is ``"cross"`` (private↔public, the paper's
    geo-distribution knob), ``"intra"`` (within each cloud), or ``"all"``.
    """

    delay: float = 0.002
    link_class: str = "cross"

    def apply(self, deployment: Deployment) -> None:
        config = deployment.extras["config"]
        conditions = deployment.network.conditions
        private = set(config.private_replicas)
        for src in config.all_replicas:
            for dst in config.all_replicas:
                if src == dst:
                    continue
                crosses = (src in private) != (dst in private)
                if self.link_class == "all" or (
                    crosses if self.link_class == "cross" else not crosses
                ):
                    conditions.set_extra_delay(src, dst, self.delay)

    @property
    def label(self) -> str:
        return f"link-degradation({self.link_class}, +{self.delay}s)"


@dataclass(frozen=True)
class ClearLinkDegradation(ScenarioEvent):
    """Remove every extra per-link delay."""

    def apply(self, deployment: Deployment) -> None:
        deployment.network.conditions.clear_extra_delays()

    @property
    def label(self) -> str:
        return "clear-link-degradation"


@dataclass(frozen=True)
class ModeSwitch(ScenarioEvent):
    """Have a live trusted replica initiate a dynamic mode switch.

    ``new_mode`` is a :class:`Mode` or ``"next"``, which cycles
    Lion → Dog → Peacock → Lion from the mode the deployment is currently
    in — so one scenario definition exercises a different transition in
    each leg of the mode-parametrized matrix.
    """

    new_mode: object = "next"

    def apply(self, deployment: Deployment) -> None:
        config = deployment.extras["config"]
        current = _current_mode(deployment)
        target = self.new_mode
        if target == "next":
            target = _MODE_CYCLE[(_MODE_CYCLE.index(current) + 1) % len(_MODE_CYCLE)]
        initiator = next(
            (
                deployment.replicas[replica_id]
                for replica_id in config.private_replicas
                if not deployment.replicas[replica_id].crashed
            ),
            None,
        )
        if initiator is not None:
            initiator.request_mode_switch(target)

    @property
    def label(self) -> str:
        name = self.new_mode if isinstance(self.new_mode, str) else self.new_mode.name
        return f"mode-switch({name})"


@dataclass(frozen=True)
class ClientSurge(ScenarioEvent):
    """Ramp client load by spawning (and starting) additional clients.

    The deployment's own pool builds them, so on a sharded deployment the
    new clients are router-aware like the originals.
    """

    count: int = 2
    window: Optional[int] = None

    def apply(self, deployment: Deployment) -> None:
        deployment.add_clients(self.count, window=self.window)

    @property
    def label(self) -> str:
        return f"client-surge(+{self.count})"


@dataclass(frozen=True)
class OnShard(ScenarioEvent):
    """Apply a single-cluster scenario event to one shard.

    The wrapped event's own ``at`` is ignored — the wrapper's ``at`` is the
    schedule — so any event above composes unchanged (targets resolve
    against the shard's config, e.g. ``"primary"`` is *that shard's* current
    primary).  ``ClientSurge`` must not be wrapped: an unrouted client would
    aim every key at one shard, so the per-shard pools refuse to spawn;
    surge the sharded deployment itself.
    """

    shard: int = 0
    event: Optional[ScenarioEvent] = None

    def apply(self, deployment: ShardedDeployment) -> None:
        if self.event is None:
            raise ValueError("OnShard needs a wrapped event")
        self.event.apply(deployment.shards[self.shard])

    @property
    def label(self) -> str:
        inner = self.event.label if self.event is not None else "?"
        return f"s{self.shard}:{inner}"


@dataclass(frozen=True)
class IsolateShard(ScenarioEvent):
    """Cut one shard's replicas off from every other node, clients included.

    Cross-shard transactions touching the shard stall in prepare (and, with
    a coordinator timeout, abort); single-shard traffic for the other
    shards must keep flowing.  Replaces any existing partition.
    """

    shard: int = 0

    def apply(self, deployment: ShardedDeployment) -> None:
        isolated = set(deployment.shards[self.shard].replicas)
        everyone_else = set(deployment.all_node_ids()) - isolated
        deployment.network.conditions.partition(isolated, everyone_else)

    @property
    def label(self) -> str:
        return f"isolate-shard({self.shard})"


__all__ = [
    "ScenarioEvent",
    "Crash",
    "Recover",
    "Byzantine",
    "RestoreHonest",
    "Partition",
    "HealPartition",
    "LinkDegradation",
    "ClearLinkDegradation",
    "ModeSwitch",
    "ClientSurge",
    "OnShard",
    "IsolateShard",
    "resolve_target",
]
