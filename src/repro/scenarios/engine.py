"""The scenario engine: declarative scenarios, run deterministically.

A :class:`Scenario` is pure data: deployment knobs, a tuple of timed
:mod:`events <repro.scenarios.events>` and a tuple of declarative
:class:`expectations <Expectation>`.  It is the only scenario type: one
group of closed-loop clients by default, several groups over one keyspace
when it names ``modes``, under a live mode controller when it names an
``adaptive`` policy, under a modeled user population when it carries an
:class:`OpenLoop` section — and it knows how to ``build()`` its deployment
and name its ``default_checkers()``.  A variant of a scenario (another
seed, a shorter run, a steeper surge) is ``dataclasses.replace(scenario,
...)``.

:func:`run_scenario` is the one engine: it schedules the events on the
deployment's runtime, samples every invariant checker periodically while
the load runs, lets the network settle after the load stops, and returns a
:class:`ScenarioResult` that knows whether the run upheld every invariant
and expectation.  Handed a pre-built ``deployment`` it runs the schedule
against that instead, which is how the baselines (``cft`` / ``bft`` /
``s-upright``) take a fault on a clock.

Because the simulator is deterministic, a scenario is reproducible from
``(scenario, mode)`` alone — a failing scenario in CI replays identically
on a laptop.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.cluster.builders import AdaptiveSpec, build_seemore, build_sharded_seemore
from repro.cluster.deployment import Deployment
from repro.cluster.runner import RunResult, run_deployment
from repro.cluster.wiring import ShardSpec
from repro.core.admission import AdmissionPolicy
from repro.core.batching import BatchPolicy
from repro.core.modes import Mode
from repro.scenarios.events import _MODE_CYCLE, ScenarioEvent, resolve_target
from repro.scenarios.invariants import CrossShardAtomicity, InvariantChecker, default_checkers
from repro.workload.generator import Workload, WorkloadSpec
from repro.workload.openloop import ArrivalProcess, ClientPopulation, OpenLoopDriver
from repro.workload.slo import SlaViolation, SloSpec

# -- expectations -----------------------------------------------------------------


class Expectation:
    """A declarative post-condition of one scenario run.

    ``probe_times`` lets an expectation capture mid-run state: the engine
    records the completion count at each requested time and hands the
    probes back to :meth:`evaluate`.  ``shard`` is how :class:`ShardExpects`
    names the group a wrapped expectation is held to; unwrapped, an
    expectation about one group's state judges ``deployment.group()`` and
    one about replicas at large judges every group's.
    """

    def probe_times(self) -> List[float]:
        return []

    def evaluate(
        self, deployment: Deployment, probes: Dict[float, int], shard: Optional[int] = None
    ) -> List[str]:
        raise NotImplementedError

    def check(self, deployment: Deployment) -> None:
        """Raise ``ValueError`` if the expectation cannot be judged on ``deployment``."""

    @property
    def label(self) -> str:
        return type(self).__name__


def judged_replicas(deployment: Deployment, shard: Optional[int]) -> list:
    """The correct replicas an expectation judges: one group's when named, else all."""
    return (deployment if shard is None else deployment.group(shard)).correct_replicas()


@dataclass(frozen=True)
class ProgressAfter(Expectation):
    """At least ``min_completed`` requests complete after time ``at``.

    This is the liveness half of every fault scenario: whatever the fault
    did, the system must be making progress again by ``at``.
    """

    at: float
    min_completed: int = 10

    def probe_times(self) -> List[float]:
        return [self.at]

    def evaluate(self, deployment, probes, shard=None) -> List[str]:
        progressed = deployment.metrics.completed - probes[self.at]
        if progressed < self.min_completed:
            return [
                f"only {progressed} requests completed after t={self.at} "
                f"(expected >= {self.min_completed})"
            ]
        return []


@dataclass(frozen=True)
class ViewAdvanced(Expectation):
    """Some correct replica reached at least ``min_view`` (a view change ran)."""

    min_view: int = 1

    def evaluate(self, deployment, probes, shard=None) -> List[str]:
        views = [replica.view for replica in judged_replicas(deployment, shard)]
        if not views or max(views) < self.min_view:
            return [f"no correct replica advanced to view {self.min_view} (views: {views})"]
        return []


@dataclass(frozen=True)
class ModeIs(Expectation):
    """Every correct replica ends ``steps`` positions along the mode cycle.

    ``steps=1`` from Lion means Dog, and so on — phrased relative to the
    initial mode so one scenario definition works in every leg of the
    mode-parametrized matrix.
    """

    steps: int = 1

    def evaluate(self, deployment, probes, shard=None) -> List[str]:
        group = deployment.group(shard)
        index = (_MODE_CYCLE.index(group.mode) + self.steps) % len(_MODE_CYCLE)
        expected = _MODE_CYCLE[index]
        wrong = {
            replica.node_id: replica.mode.name
            for replica in group.correct_replicas()
            if replica.mode is not expected
        }
        if wrong:
            return [f"replicas not in mode {expected.name}: {wrong}"]
        return []


@dataclass(frozen=True)
class StateTransferred(Expectation):
    """The target replica completed at least one state transfer."""

    target: str

    def evaluate(self, deployment, probes, shard=None) -> List[str]:
        group = deployment.group(shard)
        replica = group.replica(resolve_target(group, self.target))
        if replica.state_transfers_completed < 1:
            return [f"{replica.node_id} never completed a state transfer"]
        return []


@dataclass(frozen=True)
class CaughtUp(Expectation):
    """The target replica's execution frontier is within ``slack`` of the max."""

    target: str
    slack: int = 64

    def evaluate(self, deployment, probes, shard=None) -> List[str]:
        group = deployment.group(shard)
        replica = group.replica(resolve_target(group, self.target))
        frontier = max((peer.last_executed for peer in group.correct_replicas()), default=0)
        if replica.last_executed < frontier - self.slack:
            return [
                f"{replica.node_id} executed only {replica.last_executed} of "
                f"{frontier} (allowed slack {self.slack})"
            ]
        return []


@dataclass(frozen=True)
class TransactionsAtLeast(Expectation):
    """At least ``count`` cross-shard transactions ended in ``outcome``."""

    outcome: str = "committed"
    count: int = 1

    def evaluate(self, deployment, probes, shard=None) -> List[str]:
        reached = deployment.transaction_stats()[self.outcome]
        if reached < self.count:
            return [
                f"only {reached} cross-shard transactions {self.outcome} "
                f"(expected >= {self.count})"
            ]
        return []


@dataclass(frozen=True)
class ShardExpects(Expectation):
    """Hold one group to an expectation (``OnShard`` for verdicts).

    Probes count whole-deployment completions, so wrap only expectations
    that judge end-of-run state (modes, views, controller decisions).
    """

    shard: int
    expectation: Expectation

    def evaluate(self, deployment, probes, shard=None) -> List[str]:
        return [
            f"shard {self.shard}: {failure}"
            for failure in self.expectation.evaluate(deployment, probes, self.shard)
        ]

    def check(self, deployment: Deployment) -> None:
        deployment.group(self.shard)


# -- the scenario itself ----------------------------------------------------------


@dataclass(frozen=True)
class OpenLoop:
    """The open-loop section of a scenario: a modeled population as the load.

    A closed loop can only offer as much load as its clients' windows allow,
    so overload never shows up as latency.  With this section the load is an
    arrival process over ``num_users`` modeled users, multiplexed over
    ``connections`` real connections with ``window`` pipelined requests each
    (outstanding work and memory are O(connections x window + backlog),
    never O(users)), latency is stamped from *arrival*, and the run is one
    measured window: ``warmup`` seconds discarded, then the scenario's
    ``duration`` judged against ``slo``.

    Attributes:
        arrivals: the arrival curve, called as ``arrivals(seed=...)`` with
            the scenario's seed — an :class:`ArrivalProcess` class with its
            rates bound, e.g. ``partial(BurstyArrivals, base_rate=400.0,
            ...)``; ``partial(section.arrivals, burst_rate=...)`` varies it.
        max_backlog: arrivals the driver queues before dropping.
        max_busy_retries: re-sends after a signed ``Busy`` before a request
            is shed (``None`` retries forever).
    """

    arrivals: Callable[..., ArrivalProcess]
    num_users: int = 1_000_000
    connections: int = 32
    window: int = 16
    max_backlog: int = 32
    max_busy_retries: Optional[int] = 2
    slo: SloSpec = SloSpec(percentile=0.99, bound=0.1)
    warmup: float = 0.5

    def __post_init__(self) -> None:
        if self.warmup < 0:
            raise ValueError(f"open-loop warmup must not be negative: {self.warmup}")

    def spawn(self, deployment: Deployment, seed: int) -> OpenLoopDriver:
        """The driver and connection pool of one run, on ``deployment``'s client pool."""
        population = ClientPopulation(self.num_users, self.arrivals(seed=seed), seed=seed)
        return deployment.client_pool.spawn_open_loop(
            population,
            connections=self.connections,
            max_backlog=self.max_backlog,
            max_busy_retries=self.max_busy_retries,
            window=self.window,
        )


@dataclass(frozen=True)
class Scenario:
    """One named, declarative fault scenario.

    Attributes:
        name: registry key (kebab-case).
        description: one line for reports.
        events: timed events, applied on the deployment's runtime clock.
        expectations: post-conditions checked after the run settles.
        duration: simulated seconds of client load.
        settle: extra simulated seconds after the clients stop, so
            in-flight commits and state transfers can drain before the
            final invariant checks.
        num_clients: closed-loop clients at start (events may add more).
        client_window: requests each client pipelines (None = workload default).
        batch_policy: primary-side batching (None = unbatched).
        crash_tolerance / byzantine_tolerance: each group's ``c`` / ``m``.
        checkpoint_period: slots per checkpoint.
        workload: what :meth:`Workload.build <repro.workload.generator.Workload.build>`
            takes — a micro-benchmark name (``"0/0"``...) or a
            :class:`~repro.workload.generator.WorkloadSpec`, whose own
            ``seed`` gives way to the scenario's.
        seed: drives all randomness: latency jitter, the workload's key
            choice and, open loop, the arrivals and the user population.
        min_completed: whole-run liveness floor.
        check_interval: how often the invariant checkers sample.
        modes: one mode per shard, for several groups over one keyspace
            (give ``workload`` a ``sharded-kv`` spec); ``None`` is a single
            group, whose mode :func:`run_scenario`'s argument picks.
        partition_policy / txn_timeout: sharded only — how the keyspace is
            split, and how long a coordinator waits for prepare votes.
        admission: primary-side admission control, on every group.
        adaptive: a live mode controller per group, on this policy.
        open_loop: the load is a modeled population, see :class:`OpenLoop`
            (``num_clients`` and ``client_window`` are then unused).
    """

    name: str
    description: str
    events: Tuple[ScenarioEvent, ...] = ()
    expectations: Tuple[Expectation, ...] = ()
    duration: float = 1.0
    settle: float = 0.2
    num_clients: int = 2
    client_window: Optional[int] = None
    batch_policy: Optional[BatchPolicy] = None
    crash_tolerance: int = 1
    byzantine_tolerance: int = 1
    checkpoint_period: int = 128
    workload: Union[str, WorkloadSpec] = "0/0"
    seed: int = 7
    client_timeout: float = 0.1
    min_completed: int = 10
    check_interval: float = 0.05
    modes: Optional[Tuple[Mode, ...]] = None
    partition_policy: str = "hash"
    txn_timeout: Optional[float] = None
    admission: Optional[AdmissionPolicy] = None
    adaptive: AdaptiveSpec = None
    open_loop: Optional[OpenLoop] = None

    def __post_init__(self) -> None:
        # Refused here, before anything is built: a zero check interval would
        # re-arm the sampler at one instant forever, a negative settle would
        # fail only once the whole load had run.
        if self.duration <= 0:
            raise ValueError(f"scenario {self.name!r}: duration must be positive: {self.duration}")
        if self.settle < 0:
            raise ValueError(f"scenario {self.name!r}: settle must not be negative: {self.settle}")
        if self.check_interval <= 0:
            raise ValueError(
                f"scenario {self.name!r}: check_interval must be positive: {self.check_interval}"
            )

    def build(self, mode: Optional[Mode] = None) -> Deployment:
        """Stand up the deployment this scenario runs against (Lion by default)."""
        spec = self.workload
        if isinstance(spec, WorkloadSpec):
            spec = replace(spec, seed=self.seed)
        group = dict(
            crash_tolerance=self.crash_tolerance,
            byzantine_tolerance=self.byzantine_tolerance,
            checkpoint_period=self.checkpoint_period,
            batch_policy=self.batch_policy,
            admission=self.admission,
        )
        shared = dict(
            workload=Workload.build(spec),
            # An open-loop run's connections are spawned by the engine.
            num_clients=self.num_clients if self.open_loop is None else 0,
            seed=self.seed,
            client_timeout=self.client_timeout,
            client_window=self.client_window,
            adaptive=self.adaptive,
        )
        if self.modes is None:
            return build_seemore(mode=mode if mode is not None else Mode.LION, **group, **shared)
        if mode is not None:
            raise TypeError(
                f"scenario {self.name!r} assigns a mode per shard "
                f"(modes={[m.name for m in self.modes]}); it takes no run-wide mode"
            )
        return build_sharded_seemore(
            shard_specs=tuple(ShardSpec(mode=shard_mode, **group) for shard_mode in self.modes),
            partition_policy=self.partition_policy,
            txn_timeout=self.txn_timeout,
            **shared,
        )

    def default_checkers(self) -> List[InvariantChecker]:
        """A fresh instance of every checker this scenario is judged by.

        A surge's verdict is the SLO's alone, over the window the measured
        result covers; otherwise every group is held to the standard four,
        and routed clients additionally to cross-shard atomicity.
        """
        if self.open_loop is not None:
            warmup = self.open_loop.warmup
            checkers = [SlaViolation(self.open_loop.slo, start=warmup, end=warmup + self.duration)]
        else:
            checkers = default_checkers()
        if self.modes is not None:
            checkers.append(CrossShardAtomicity())
        return checkers


@dataclass
class ScenarioResult:
    """Everything one scenario run produced, with a pass/fail verdict.

    ``mode`` is the initial mode, ``/``-joined per group when there are
    several and empty (like ``final_modes``) for a protocol that has no modes.
    ``transactions`` and ``per_shard_completed`` are filled when the
    deployment's clients are routed and ``measured`` (the measured window's
    :class:`~repro.cluster.runner.RunResult`) for open-loop ones.
    """

    scenario: str
    mode: str
    protocol: str
    duration: float
    completed: int
    client_timeouts: int
    max_view: int
    final_modes: Tuple[str, ...]
    state_transfers: int
    events_applied: List[Tuple[float, str]] = field(default_factory=list)
    invariant_violations: Dict[str, List[str]] = field(default_factory=dict)
    expectation_failures: List[str] = field(default_factory=list)
    # Engine telemetry for the count goldens — a scalar, not the deployment
    # itself, so results can be aggregated without pinning every replica
    # graph and event heap in memory.
    events_processed: int = 0
    transactions: Optional[Dict[str, int]] = None
    per_shard_completed: Optional[Tuple[int, ...]] = None
    measured: Optional[RunResult] = None

    @property
    def ok(self) -> bool:
        return not self.invariant_violations and not self.expectation_failures

    def failures(self) -> List[str]:
        lines = []
        for checker, violations in sorted(self.invariant_violations.items()):
            lines.extend(f"[{checker}] {violation}" for violation in violations)
        lines.extend(f"[expectation] {failure}" for failure in self.expectation_failures)
        return lines

    def assert_ok(self) -> None:
        if not self.ok:
            details = "\n  ".join(self.failures())
            raise AssertionError(
                f"scenario {self.scenario!r} in mode {self.mode}: "
                f"{len(self.failures())} failure(s):\n  {details}"
            )

    def as_row(self) -> Dict[str, object]:
        """Flat dict for :func:`repro.analysis.report.format_scenario_results`."""
        row: Dict[str, object] = {
            "scenario": self.scenario,
            "mode": self.mode,
            "completed": self.completed,
            "timeouts": self.client_timeouts,
            "max_view": self.max_view,
            "state_transfers": self.state_transfers,
            "failures": len(self.failures()),
            "verdict": "ok" if self.ok else "FAIL",
        }
        if self.transactions is not None:
            row["txns_committed"] = self.transactions.get("committed", 0)
            row["txns_aborted"] = self.transactions.get("aborted", 0)
        if self.measured is not None:
            row.update(self.measured.as_row())
        return row


# -- running ----------------------------------------------------------------------


def run_scenario(
    scenario: Scenario,
    mode: Optional[Mode] = None,
    checkers: Optional[Sequence[InvariantChecker]] = None,
    deployment: Optional[Deployment] = None,
) -> ScenarioResult:
    """Run one scenario and return its result (no assertion).

    ``mode`` picks the initial mode of a single-group scenario (Lion when
    omitted); a scenario with ``modes`` names them per shard.  A pre-built
    ``deployment`` may be supplied when the caller needs to inspect it
    after the run, or when the schedule is to run against another protocol
    (any ``build_*`` deployment; the scenario's deployment knobs are then
    unused).  A schedule that cannot run on the deployment — an event that
    never fires, a shard or a role it does not have, a group event aimed at
    no one group of several — is a ``ValueError`` before the clock starts.
    """
    if deployment is None:
        deployment = scenario.build(mode)
    for item in (*scenario.events, *scenario.expectations):
        try:
            item.check(deployment)
        except (KeyError, ValueError) as error:
            raise ValueError(
                f"scenario {scenario.name!r}: {item.label} cannot run on "
                f"{deployment.protocol}: {error.args[0]}"
            ) from None
    section = scenario.open_loop
    # Open loop, the load runs as one measured window (warm-up, then
    # ``duration``) under a driver instead of as a plain closed loop.
    driver = section.spawn(deployment, scenario.seed) if section is not None else None
    active_checkers = list(checkers) if checkers is not None else scenario.default_checkers()
    for checker in active_checkers:
        checker.attach(deployment)

    runtime = deployment.runtime
    load_seconds = scenario.duration + (section.warmup if section is not None else 0.0)
    start = runtime.now
    end = start + load_seconds

    events_applied: List[Tuple[float, str]] = []
    for event in scenario.events:
        if event.at > load_seconds:
            raise ValueError(
                f"scenario {scenario.name!r}: event {event.label} at t={event.at} "
                f"never fires (the load runs for {load_seconds})"
            )

        def fire(event: ScenarioEvent = event) -> None:
            events_applied.append((round(runtime.now - start, 6), event.label))
            event.apply(deployment)

        # Scheduled while the clock reads ``start``: it fires at ``start + at``.
        runtime.call_later(event.at, fire, label=f"scenario:{event.label}")

    # Completion-count probes for expectations like ProgressAfter.
    probes: Dict[float, int] = {}
    for expectation in scenario.expectations:
        for at in expectation.probe_times():
            if at >= load_seconds + scenario.settle:
                raise ValueError(
                    f"scenario {scenario.name!r}: expectation probe at t={at} is "
                    f"never captured (run ends at {load_seconds + scenario.settle})"
                )
            if at not in probes:
                def capture(at: float = at) -> None:
                    probes[at] = deployment.metrics.completed

                probes[at] = 0
                runtime.call_later(at, capture, label="scenario:probe")

    # Periodic invariant sampling (deduplicated; checkers may accumulate).
    violations: Dict[str, List[str]] = {}
    seen: set = set()

    def record(checker_name: str, messages: List[str]) -> None:
        for message in messages:
            if (checker_name, message) not in seen:
                seen.add((checker_name, message))
                violations.setdefault(checker_name, []).append(message)

    def sample() -> None:
        for checker in active_checkers:
            record(checker.name, checker.check(deployment))
        if runtime.now < end:
            runtime.call_later(scenario.check_interval, sample, label="scenario:check")

    if active_checkers:  # nothing to sample otherwise
        runtime.call_later(scenario.check_interval, sample, label="scenario:check")

    measured = None
    if driver is None:
        runtime.run(kickoff=deployment.start_clients, timeout=load_seconds)
        deployment.stop_clients()
    else:
        measured = run_deployment(
            deployment, scenario.duration, section.warmup, driver=driver, slo=section.slo
        )
    runtime.run(timeout=scenario.settle)

    for checker in active_checkers:
        record(checker.name, checker.finalize(deployment))
    deployment.collect_batch_sizes()

    routed = deployment.router is not None
    # Only SeeMoRe groups run in a mode; a baseline's group names none.
    initial_modes = [group.mode for group in deployment.shards if group.mode is not None]
    expectation_failures: List[str] = []
    if deployment.metrics.completed < scenario.min_completed:
        expectation_failures.append(
            f"only {deployment.metrics.completed} requests completed over the whole "
            f"run (liveness floor {scenario.min_completed})"
        )
    for expectation in scenario.expectations:
        expectation_failures.extend(expectation.evaluate(deployment, probes))

    correct = deployment.correct_replicas()
    return ScenarioResult(
        scenario=scenario.name,
        mode="/".join(initial.name.lower() for initial in initial_modes),
        protocol=deployment.protocol,
        duration=scenario.duration,
        completed=deployment.metrics.completed,
        client_timeouts=deployment.client_pool.total_timeouts,
        max_view=max((replica.view for replica in correct), default=0),
        final_modes=tuple(sorted({replica.mode.name for replica in correct}))
        if initial_modes
        else (),
        # Telemetry over *all* replicas: a crashed-then-recovered replica
        # stays in the conservative faulty set, but its state transfer is
        # exactly what the report should show.
        state_transfers=sum(
            replica.state_transfers_completed for replica in deployment.replicas.values()
        ),
        events_applied=events_applied,
        invariant_violations=violations,
        expectation_failures=expectation_failures,
        events_processed=deployment.simulator.events_processed,
        transactions=deployment.transaction_stats() if routed else None,
        per_shard_completed=tuple(deployment.per_shard_completed()) if routed else None,
        measured=measured,
    )


def run_scenario_matrix(
    scenarios: Sequence[Scenario],
    modes: Sequence[Optional[Mode]] = (Mode.LION, Mode.DOG, Mode.PEACOCK),
    checker_factory: Optional[Callable[[], Sequence[InvariantChecker]]] = None,
) -> List[ScenarioResult]:
    """Run every scenario in every mode; returns all results (no assertion).

    Pass ``modes=(None,)`` for scenarios that fix their own modes (a sharded
    library).  Checkers are stateful and single-run, so custom ones are
    supplied as a ``checker_factory`` called once per leg; there is no
    ``checkers=`` here, which would share one instance set across legs and
    cross-contaminate their incremental state.
    """
    return [
        run_scenario(
            scenario,
            mode,
            checkers=checker_factory() if checker_factory is not None else None,
        )
        for scenario in scenarios
        for mode in modes
    ]


__all__ = [
    "Expectation",
    "ProgressAfter",
    "ViewAdvanced",
    "ModeIs",
    "StateTransferred",
    "CaughtUp",
    "TransactionsAtLeast",
    "ShardExpects",
    "OpenLoop",
    "Scenario",
    "ScenarioResult",
    "run_scenario",
    "run_scenario_matrix",
]
