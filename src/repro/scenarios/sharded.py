"""Fault scenarios for sharded deployments.

The same declarative style as the single-cluster library, lifted to
:class:`~repro.shard.deployment.ShardedDeployment` and run by the same
:func:`~repro.scenarios.engine.run_scenario`:

* **events** — :class:`OnShard` replays any single-cluster event (crash,
  Byzantine strategy, mode switch, ...) against one shard;
  :class:`IsolateShard` partitions a whole shard's replica group away from
  every other node (clients included), the coarse failure a sharded system
  must absorb.  Deployment-wide events (``HealPartition``, ``ClientSurge``)
  apply to a sharded deployment unchanged;
* **checkers** — :class:`PerShardInvariants` runs the standard
  single-cluster checkers on every shard, :class:`CrossShardAtomicity`
  holds the two-phase protocol to its contract (no shard commits a
  transaction another shard aborted), and the standard
  :class:`~repro.scenarios.invariants.NoForgedReplies` judges every accepted
  reply against the correct replicas of the *owning* shard;
* **expectations** — :class:`TransactionsAtLeast` counts 2PC outcomes and
  :class:`ShardExpects` holds one shard to any single-cluster expectation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.builders import build_sharded_seemore
from repro.core.batching import BatchPolicy
from repro.core.modes import Mode
from repro.scenarios.engine import Expectation
from repro.scenarios.events import (
    Byzantine,
    Crash,
    HealPartition,
    ModeSwitch,
    Recover,
    ScenarioEvent,
)
from repro.scenarios.invariants import InvariantChecker, NoForgedReplies, default_checkers
from repro.shard.deployment import ShardedDeployment, ShardSpec
from repro.workload.generator import Workload, WorkloadSpec

# -- events -----------------------------------------------------------------------


@dataclass(frozen=True)
class OnShard(ScenarioEvent):
    """Apply a single-cluster scenario event to one shard.

    The wrapped event's own ``at`` is ignored — the wrapper's ``at`` is the
    schedule — so any event from :mod:`repro.scenarios.events` composes
    unchanged (targets resolve against the shard's config, e.g.
    ``"primary"`` is *that shard's* current primary).  ``ClientSurge`` must
    not be wrapped: an unrouted client would aim every key at one shard, so
    the per-shard pools refuse to spawn; surge the sharded deployment itself.
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


# -- checkers ---------------------------------------------------------------------


class PerShardInvariants(InvariantChecker):
    """Run the full single-cluster checker set independently on every shard.

    Committed-prefix agreement, exactly-once execution, and checkpoint
    agreement are all *per-shard* properties — each shard is its own
    replicated state machine — so each shard gets a fresh checker set and
    violations are reported with the shard index.
    """

    name = "per-shard-invariants"

    def __init__(self, checker_factory=default_checkers) -> None:
        self._checker_factory = checker_factory
        self._checkers: Dict[int, List[InvariantChecker]] = {}

    def attach(self, deployment: ShardedDeployment) -> None:
        for index, shard in enumerate(deployment.shards):
            self._checkers[index] = list(self._checker_factory())
            for checker in self._checkers[index]:
                checker.attach(shard)

    def _collect(self, deployment: ShardedDeployment, hook: Callable) -> List[str]:
        return [
            f"shard {index} [{checker.name}] {violation}"
            for index, shard in enumerate(deployment.shards)
            for checker in self._checkers.get(index, ())
            for violation in hook(checker, shard)
        ]

    def check(self, deployment: ShardedDeployment) -> List[str]:
        return self._collect(deployment, lambda checker, shard: checker.check(shard))

    def finalize(self, deployment: ShardedDeployment) -> List[str]:
        return self._collect(deployment, lambda checker, shard: checker.finalize(shard))


class CrossShardAtomicity(InvariantChecker):
    """No shard commits a cross-shard transaction another shard aborted.

    Checked continuously — a transient split-decision that some later
    repair would paper over is still caught at the sample closest to the
    moment it happened.
    """

    name = "cross-shard-atomicity"

    def check(self, deployment: ShardedDeployment) -> List[str]:
        return deployment.atomicity_violations()


# -- expectations -----------------------------------------------------------------


@dataclass(frozen=True)
class TransactionsAtLeast(Expectation):
    """At least ``count`` cross-shard transactions ended in ``outcome``."""

    outcome: str = "committed"
    count: int = 1

    def evaluate(self, deployment, initial_mode, probes) -> List[str]:
        reached = deployment.transaction_stats()[self.outcome]
        if reached < self.count:
            return [
                f"only {reached} cross-shard transactions {self.outcome} "
                f"(expected >= {self.count})"
            ]
        return []


@dataclass(frozen=True)
class ShardExpects(Expectation):
    """Hold one shard to a single-cluster expectation (``OnShard`` for verdicts).

    Probes count whole-deployment completions, so wrap only expectations
    that judge end-of-run state (modes, views, controller decisions).
    """

    shard: int
    expectation: Expectation

    def evaluate(self, deployment, initial_mode, probes) -> List[str]:
        group = deployment.shards[self.shard]
        return [
            f"shard {self.shard}: {failure}"
            for failure in self.expectation.evaluate(group, group.extras["mode"], probes)
        ]


# -- the scenario -----------------------------------------------------------------


@dataclass(frozen=True)
class ShardedScenario:
    """One named, declarative fault scenario over a sharded deployment.

    ``modes`` assigns each shard its SeeMoRe mode (and implicitly the shard
    count); uniform fault thresholds keep the definition compact.  The
    workload is always the sharded key-value mix, with
    ``cross_shard_fraction`` of operations running the two-phase path.
    """

    name: str
    description: str
    modes: Tuple[Mode, ...] = (Mode.LION, Mode.LION)
    events: Tuple[ScenarioEvent, ...] = ()
    expectations: Tuple[Expectation, ...] = (TransactionsAtLeast("committed", 1),)
    duration: float = 1.0
    settle: float = 0.3
    num_clients: int = 3
    client_window: int = 2
    crash_tolerance: int = 1
    byzantine_tolerance: int = 1
    checkpoint_period: int = 128
    batch_policy: Optional[BatchPolicy] = None
    cross_shard_fraction: float = 0.2
    read_fraction: float = 0.5
    key_space: int = 200
    key_distribution: str = "uniform"
    partition_policy: str = "hash"
    txn_timeout: Optional[float] = 0.3
    seed: int = 7
    client_timeout: float = 0.1
    min_completed: int = 10
    check_interval: float = 0.05

    @property
    def num_shards(self) -> int:
        return len(self.modes)

    def build(self, mode: Optional[Mode] = None, **overrides) -> ShardedDeployment:
        """Stand up the deployment this scenario runs against."""
        if mode is not None:
            raise TypeError(
                f"sharded scenario {self.name!r} assigns a mode per shard "
                f"(modes={[m.name for m in self.modes]}); it takes no run-wide mode"
            )
        specs = tuple(
            ShardSpec(
                mode=shard_mode,
                crash_tolerance=self.crash_tolerance,
                byzantine_tolerance=self.byzantine_tolerance,
                checkpoint_period=self.checkpoint_period,
                batch_policy=self.batch_policy,
            )
            for shard_mode in self.modes
        )
        workload = Workload.build(
            WorkloadSpec(
                kind="sharded-kv",
                key_space=self.key_space,
                read_fraction=self.read_fraction,
                seed=self.seed,
                cross_shard_fraction=self.cross_shard_fraction,
                key_distribution=self.key_distribution,
            )
        )
        build_kwargs = dict(
            shard_specs=specs,
            workload=workload,
            num_clients=self.num_clients,
            seed=self.seed,
            partition_policy=self.partition_policy,
            client_timeout=self.client_timeout,
            client_window=self.client_window,
            txn_timeout=self.txn_timeout,
        )
        build_kwargs.update(overrides)
        return build_sharded_seemore(**build_kwargs)

    def default_checkers(self) -> List[InvariantChecker]:
        """A fresh instance of every standard sharded checker."""
        return [PerShardInvariants(), CrossShardAtomicity(), NoForgedReplies()]


# -- the library ------------------------------------------------------------------


SHARD_PRIMARY_CRASH = ShardedScenario(
    name="shard-primary-crash-mid-traffic",
    description="One shard's primary crashes under mixed single/cross-shard load; "
    "that shard must view-change while the others keep serving, and every "
    "cross-shard transaction must stay atomic.",
    modes=(Mode.LION, Mode.LION, Mode.LION),
    events=(OnShard(at=0.15, shard=1, event=Crash(at=0.0, target="primary")),),
    expectations=(TransactionsAtLeast("committed", 3),),
    duration=0.9,
)

SHARD_ISOLATED_THEN_HEALS = ShardedScenario(
    name="shard-isolated-then-heals",
    description="A whole shard is partitioned away mid-traffic; transactions "
    "touching it abort on the coordinator timeout (atomically), the rest of "
    "the keyspace keeps serving, and the shard rejoins after the heal.",
    modes=(Mode.LION, Mode.LION),
    events=(IsolateShard(at=0.15, shard=1), HealPartition(at=0.45)),
    expectations=(TransactionsAtLeast("committed", 1), TransactionsAtLeast("aborted", 1)),
    duration=1.0,
    settle=0.4,
    cross_shard_fraction=0.3,
    txn_timeout=0.12,
)

MIXED_MODE_SHARDS = ShardedScenario(
    name="mixed-mode-shards-under-load",
    description="Three shards running Lion, Dog, and Peacock serve one keyspace; "
    "cross-shard transactions span trust domains and must commit atomically.",
    modes=(Mode.LION, Mode.DOG, Mode.PEACOCK),
    expectations=(TransactionsAtLeast("committed", 5),),
    cross_shard_fraction=0.25,
    duration=0.8,
)

SHARD_BYZANTINE_BACKUP = ShardedScenario(
    name="shard-byzantine-backup-lies",
    description="A public-cloud replica of one shard forges results under load; "
    "no client may accept a reply its shard's correct replicas did not produce.",
    modes=(Mode.LION, Mode.LION),
    events=(
        OnShard(at=0.12, shard=0, event=Byzantine(at=0.0, target="public-backup", strategy="lie")),
    ),
    duration=0.7,
)

SHARD_CRASH_RECOVER_WITH_MODE_SWITCH = ShardedScenario(
    name="shard-crash-recover-mode-switch",
    description="One shard loses a private backup and recovers it while another "
    "shard switches modes mid-traffic; both local repairs must stay invisible "
    "to cross-shard atomicity.",
    modes=(Mode.LION, Mode.LION),
    events=(
        OnShard(at=0.1, shard=0, event=Crash(at=0.0, target="private:1")),
        OnShard(at=0.2, shard=1, event=ModeSwitch(at=0.0, new_mode="next")),
        OnShard(at=0.35, shard=0, event=Recover(at=0.0, target="private:1")),
    ),
    duration=0.9,
)


#: The sharded scenario library, in presentation order.
SHARDED_SCENARIOS: Dict[str, ShardedScenario] = {
    scenario.name: scenario
    for scenario in (
        SHARD_PRIMARY_CRASH,
        SHARD_ISOLATED_THEN_HEALS,
        MIXED_MODE_SHARDS,
        SHARD_BYZANTINE_BACKUP,
        SHARD_CRASH_RECOVER_WITH_MODE_SWITCH,
    )
}


__all__ = [
    "OnShard",
    "IsolateShard",
    "PerShardInvariants",
    "CrossShardAtomicity",
    "TransactionsAtLeast",
    "ShardExpects",
    "ShardedScenario",
    "SHARDED_SCENARIOS",
]
