"""Declarative, schedulable fault-scenario events.

Every event is a frozen dataclass with an ``at`` time (simulated seconds
from scenario start) and an :meth:`apply` method that mutates a running
:class:`~repro.cluster.deployment.Deployment`.  The scenario engine
schedules events on the simulator clock, so a scenario is a pure function
of its inputs — the same scenario with the same seed produces the same
trace every time.

An event is either *deployment-wide* (``HealPartition``,
``ClearLinkDegradation``, ``ClientSurge``, ``IsolateShard``: the network's
conditions, the one client pool) or a :class:`GroupEvent` that acts on one
replica :class:`~repro.cluster.wiring.Group` and reads the deployment only
for what is shared.  A group event scheduled as it is acts on
``deployment.group()`` — the only group of a single cluster — and
:class:`OnShard` names the group, ``deployment.group(shard)``, when there
are several (or one).  Every event can also :meth:`~ScenarioEvent.check`
itself against a built deployment, which is how the engine refuses a
schedule that cannot run before the clock starts.

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

:class:`IsolateShard` partitions a whole group away from every other node
(clients included), the coarse failure a sharded system must absorb.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.cluster.deployment import Deployment
from repro.cluster.wiring import Group
from repro.core.modes import Mode
from repro.faults.byzantine import make_byzantine, restore_honest
from repro.faults.crash import crash_replica, current_primary_id, recover_replica

#: Cycle used by ``ModeSwitch("next")``: each switch moves one step.
_MODE_CYCLE = (Mode.LION, Mode.DOG, Mode.PEACOCK)


def _cloud_members(group: Group, cloud: str, target: str) -> Tuple[str, ...]:
    """The replicas of one cloud, for resolving the cloud role ``target``."""
    members = getattr(group.config, f"{cloud}_replicas", None)
    if members is None:
        raise KeyError(
            f"cannot resolve {target!r}: a {group.label} configuration "
            f"places no replicas in a {cloud} cloud"
        )
    return members


def resolve_target(group: Group, target: str) -> str:
    """Resolve a role name (see module docstring) to a replica id of ``group``."""
    if target == "primary":
        return current_primary_id(group)
    if target in ("public-primary", "public-backup"):
        public = _cloud_members(group, "public", target)
        primary = current_primary_id(group)
        if target == "public-primary" and primary in public:
            return primary
        resolved = next((r for r in public if r != primary), None)
        if resolved is None:
            raise KeyError(
                f"cannot resolve {target!r}: no public replica other than the "
                f"current primary in this group"
            )
        return resolved
    for cloud in ("private", "public"):
        prefix = f"{cloud}:"
        if target.startswith(prefix):
            members = _cloud_members(group, cloud, target)
            index = int(target[len(prefix):])
            if not 0 <= index < len(members):
                raise KeyError(
                    f"cannot resolve {target!r}: {group.label} has {len(members)} {cloud} replicas"
                )
            return members[index]
    if target not in group.replicas:
        raise KeyError(f"unknown scenario target {target!r}")
    return target


def _resolve_members(group: Group, name: str) -> Tuple[str, ...]:
    """A role name, or the shorthand ``"private"`` / ``"public"`` for a whole cloud."""
    if name in ("private", "public"):
        return tuple(_cloud_members(group, name, name))
    return (resolve_target(group, name),)


def _current_mode(group: Group) -> Mode:
    """The mode the group is operating in (or moving toward).

    Uses the most-progressed correct replica (highest view), so a
    ``ModeSwitch("next")`` that fires while an earlier switch is still
    installing cycles from the mode being installed, not a stale one.
    """
    correct = group.correct_replicas()
    if not correct:
        return group.mode
    return max(correct, key=lambda replica: replica.view).mode


@dataclass(frozen=True)
class ScenarioEvent:
    """Base class: one timed action against a running deployment."""

    at: float

    def apply(self, deployment: Deployment) -> None:
        raise NotImplementedError

    def check(self, deployment: Deployment) -> None:
        """Raise ``ValueError`` / ``KeyError`` if the event cannot run on ``deployment``.

        Validity of *shape* only (a group that exists, a role the group's
        configuration has); the engine calls it before the clock starts.
        """

    @property
    def label(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class GroupEvent(ScenarioEvent):
    """An event that acts on one replica group: ``deployment.group(shard)``.

    ``shard`` is how :class:`OnShard` names the group; scheduled as it is,
    the event acts on the only group there is.
    """

    def roles(self) -> Tuple[str, ...]:
        """The role names (or cloud shorthands) the event resolves when it fires.

        Its ``target`` field, for the events that have one.
        """
        target = getattr(self, "target", None)
        return () if target is None else (target,)

    def apply(self, deployment: Deployment, shard: Optional[int] = None) -> None:
        self.apply_to(deployment.group(shard), deployment)

    def apply_to(self, group: Group, deployment: Deployment) -> None:
        raise NotImplementedError

    def check(self, deployment: Deployment, shard: Optional[int] = None) -> None:
        group = deployment.group(shard)
        for role in self.roles():
            _resolve_members(group, role)


@dataclass(frozen=True)
class Crash(GroupEvent):
    """Fail-stop a replica (role-resolved at fire time)."""

    target: str = "primary"

    def apply_to(self, group: Group, deployment: Deployment) -> None:
        crash_replica(group, resolve_target(group, self.target))

    @property
    def label(self) -> str:
        return f"crash({self.target})"


@dataclass(frozen=True)
class Recover(GroupEvent):
    """Bring a crashed replica back online."""

    target: str = "primary"

    def apply_to(self, group: Group, deployment: Deployment) -> None:
        recover_replica(group, resolve_target(group, self.target))

    @property
    def label(self) -> str:
        return f"recover({self.target})"


@dataclass(frozen=True)
class Byzantine(GroupEvent):
    """Activate a named Byzantine strategy on a public-cloud replica."""

    target: str = "public-backup"
    strategy: str = "silent"

    def apply_to(self, group: Group, deployment: Deployment) -> None:
        make_byzantine(group, resolve_target(group, self.target), self.strategy)

    @property
    def label(self) -> str:
        return f"byzantine({self.target}, {self.strategy})"


@dataclass(frozen=True)
class RestoreHonest(GroupEvent):
    """End Byzantine behaviour: the attack subsides.

    Drops the attack rewiring of ``target`` -- or, with the default
    ``target=None``, of *every* replica in the group's faulty set, which is robust
    to role-resolved targets pointing at a different replica after the
    view changes the attack provoked.  Restored replicas stay in the
    faulty set for conservative safety accounting (like a recovered
    crash); they merely stop producing fresh evidence, which is what lets
    an adaptive controller de-escalate.
    """

    target: Optional[str] = None

    def apply_to(self, group: Group, deployment: Deployment) -> None:
        if self.target is None:
            targets = sorted(group.faulty_replicas)
        else:
            targets = [resolve_target(group, self.target)]
        for replica_id in targets:
            restore_honest(group, replica_id)

    @property
    def label(self) -> str:
        return f"restore-honest({self.target or 'all-faulty'})"


@dataclass(frozen=True)
class Partition(GroupEvent):
    """Split the network into sides that can only talk internally.

    ``groups`` are tuples of role names/ids of one replica group, or the
    shorthand strings ``"private"`` / ``"public"`` for a whole cloud.  Nodes
    named on no side (e.g. clients) keep talking to everyone.
    """

    groups: Tuple[Tuple[str, ...], ...] = (("private",), ("public",))

    def roles(self) -> Tuple[str, ...]:
        return tuple(name for side in self.groups for name in side)

    def apply_to(self, group: Group, deployment: Deployment) -> None:
        sides = [
            {member for name in side for member in _resolve_members(group, name)}
            for side in self.groups
        ]
        deployment.network.conditions.partition(*sides)

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
class LinkDegradation(GroupEvent):
    """Add a fixed extra delay to every replica↔replica link of a class.

    ``link_class`` is ``"cross"`` (private↔public, the paper's
    geo-distribution knob), ``"intra"`` (within each cloud), or ``"all"``.
    """

    delay: float = 0.002
    link_class: str = "cross"

    def roles(self) -> Tuple[str, ...]:
        return ("private", "public")

    def apply_to(self, group: Group, deployment: Deployment) -> None:
        config = group.config
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
class ModeSwitch(GroupEvent):
    """Have a live trusted replica initiate a dynamic mode switch.

    ``new_mode`` is a :class:`Mode` or ``"next"``, which cycles
    Lion → Dog → Peacock → Lion from the mode the group is currently
    in — so one scenario definition exercises a different transition in
    each leg of the mode-parametrized matrix.
    """

    new_mode: object = "next"

    def roles(self) -> Tuple[str, ...]:
        return ("private",)  # only a trusted replica may initiate a switch

    def apply_to(self, group: Group, deployment: Deployment) -> None:
        current = _current_mode(group)
        target = self.new_mode
        if target == "next":
            target = _MODE_CYCLE[(_MODE_CYCLE.index(current) + 1) % len(_MODE_CYCLE)]
        initiator = next(
            (
                group.replicas[replica_id]
                for replica_id in group.config.private_replicas
                if not group.replicas[replica_id].crashed
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

    The deployment's one pool builds them, so they are routed (or not) like
    the originals.
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
    """Aim a group event at one group of the deployment.

    The wrapped event's own ``at`` is ignored — the wrapper's ``at`` is the
    schedule — so any :class:`GroupEvent` composes unchanged (targets
    resolve against that group's config, e.g. ``"primary"`` is *that
    shard's* current primary).  A deployment-wide event has no group to be
    aimed at and is refused: a ``ClientSurge`` "on one shard" would be an
    unrouted surge.
    """

    shard: int = 0
    event: Optional[ScenarioEvent] = None

    def apply(self, deployment: Deployment) -> None:
        self.event.apply(deployment, self.shard)

    def check(self, deployment: Deployment) -> None:
        if not isinstance(self.event, GroupEvent):
            inner = "nothing" if self.event is None else f"{self.event.label}, which"
            raise ValueError(f"OnShard wraps {inner} acts on no one replica group")
        self.event.check(deployment, self.shard)

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

    def apply(self, deployment: Deployment) -> None:
        isolated = set(deployment.group(self.shard).replicas)
        everyone = set(deployment.replicas).union(client.node_id for client in deployment.clients)
        deployment.network.conditions.partition(isolated, everyone - isolated)

    def check(self, deployment: Deployment) -> None:
        deployment.group(self.shard)

    @property
    def label(self) -> str:
        return f"isolate-shard({self.shard})"


__all__ = [
    "ScenarioEvent",
    "GroupEvent",
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
