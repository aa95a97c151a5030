"""The scenario engine: declarative scenarios, run deterministically.

A scenario is pure data: deployment knobs, a tuple of timed
:mod:`events <repro.scenarios.events>` and a tuple of declarative
:class:`expectations <Expectation>`.  Three kinds exist —
:class:`Scenario` (one cluster, closed-loop clients),
:class:`~repro.scenarios.sharded.ShardedScenario` (several clusters, one
keyspace) and :class:`~repro.scenarios.openloop.OpenLoopScenario` (one
cluster under a modeled user population) — and each only knows how to
``build()`` its deployment and name its ``default_checkers()``.

:func:`run_scenario` is the one engine behind all of them: it schedules the
events on the simulator clock, samples every invariant checker periodically
while the load runs, lets the network settle after the load stops, and
returns a :class:`ScenarioResult` that knows whether the run upheld every
invariant and expectation.

Because the simulator is deterministic, a scenario is reproducible from
``(scenario, mode)`` alone — a failing scenario in CI replays identically
on a laptop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.builders import build_seemore
from repro.cluster.deployment import ClientDriven, Deployment
from repro.cluster.runner import RunResult, run_open_loop
from repro.core.batching import BatchPolicy
from repro.core.modes import Mode
from repro.scenarios.events import _MODE_CYCLE, ScenarioEvent, resolve_target
from repro.scenarios.invariants import InvariantChecker, default_checkers
from repro.workload.generator import Workload

# -- expectations -----------------------------------------------------------------


class Expectation:
    """A declarative post-condition of one scenario run.

    ``probe_times`` lets an expectation capture mid-run state: the engine
    records the completion count at each requested time and hands the
    probes back to :meth:`evaluate`.
    """

    def probe_times(self) -> List[float]:
        return []

    def evaluate(
        self, deployment: Deployment, initial_mode: Mode, probes: Dict[float, int]
    ) -> List[str]:
        raise NotImplementedError


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

    def evaluate(self, deployment, initial_mode, probes) -> List[str]:
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

    def evaluate(self, deployment, initial_mode, probes) -> List[str]:
        views = [replica.view for replica in deployment.correct_replicas()]
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

    def evaluate(self, deployment, initial_mode, probes) -> List[str]:
        index = (_MODE_CYCLE.index(initial_mode) + self.steps) % len(_MODE_CYCLE)
        expected = _MODE_CYCLE[index]
        wrong = {
            replica.node_id: replica.mode.name
            for replica in deployment.correct_replicas()
            if replica.mode is not expected
        }
        if wrong:
            return [f"replicas not in mode {expected.name}: {wrong}"]
        return []


@dataclass(frozen=True)
class StateTransferred(Expectation):
    """The target replica completed at least one state transfer."""

    target: str

    def evaluate(self, deployment, initial_mode, probes) -> List[str]:
        replica = deployment.replica(resolve_target(deployment, self.target))
        if replica.state_transfers_completed < 1:
            return [f"{replica.node_id} never completed a state transfer"]
        return []


@dataclass(frozen=True)
class CaughtUp(Expectation):
    """The target replica's execution frontier is within ``slack`` of the max."""

    target: str
    slack: int = 64

    def evaluate(self, deployment, initial_mode, probes) -> List[str]:
        replica = deployment.replica(resolve_target(deployment, self.target))
        frontier = max(
            (peer.last_executed for peer in deployment.correct_replicas()), default=0
        )
        if replica.last_executed < frontier - self.slack:
            return [
                f"{replica.node_id} executed only {replica.last_executed} of "
                f"{frontier} (allowed slack {self.slack})"
            ]
        return []


# -- the scenario itself ----------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One named, declarative fault scenario.

    Attributes:
        name: registry key (kebab-case).
        description: one line for reports.
        events: timed events, applied on the simulator clock.
        expectations: post-conditions checked after the run settles.
        duration: simulated seconds of client load.
        settle: extra simulated seconds after the clients stop, so
            in-flight commits and state transfers can drain before the
            final invariant checks.
        num_clients: closed-loop clients at start (events may add more).
        client_window: requests each client pipelines (None = workload default).
        batch_policy: primary-side batching (None = unbatched).
        crash_tolerance / byzantine_tolerance: the deployment's ``c`` / ``m``.
        checkpoint_period: slots per checkpoint.
        workload: micro-benchmark name (``"0/0"``...).
        seed: drives all randomness (latency jitter).
        min_completed: whole-run liveness floor.
        check_interval: how often the invariant checkers sample.
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
    workload: str = "0/0"
    seed: int = 7
    client_timeout: float = 0.1
    min_completed: int = 10
    check_interval: float = 0.05

    def build(self, mode: Optional[Mode] = None, **overrides) -> Deployment:
        """Stand up the deployment this scenario runs against (Lion by default)."""
        build_kwargs = dict(
            crash_tolerance=self.crash_tolerance,
            byzantine_tolerance=self.byzantine_tolerance,
            mode=mode if mode is not None else Mode.LION,
            workload=Workload.build(self.workload),
            num_clients=self.num_clients,
            seed=self.seed,
            client_timeout=self.client_timeout,
            checkpoint_period=self.checkpoint_period,
            batch_policy=self.batch_policy,
            client_window=self.client_window,
        )
        build_kwargs.update(overrides)
        return build_seemore(**build_kwargs)

    def default_checkers(self) -> List[InvariantChecker]:
        return default_checkers()


@dataclass
class ScenarioResult:
    """Everything one scenario run produced, with a pass/fail verdict.

    ``mode`` is the initial mode, ``/``-joined per shard for a sharded run.
    ``transactions`` and ``per_shard_completed`` are filled for sharded
    runs and ``measured`` (the measured window's
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
    # Engine telemetry for the perf harness — scalars, not the deployment
    # itself, so results can be aggregated without pinning every replica
    # graph and event heap in memory.
    events_processed: int = 0
    simulated_seconds: float = 0.0
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
    scenario,
    mode: Optional[Mode] = None,
    checkers: Optional[Sequence[InvariantChecker]] = None,
    deployment: Optional[ClientDriven] = None,
    **overrides,
) -> ScenarioResult:
    """Run one scenario of any kind and return its result (no assertion).

    ``mode`` picks the initial mode of a single-cluster scenario (Lion when
    omitted); a sharded scenario names its modes per shard.  Extra keyword
    arguments override the deployment builder's knobs, which lets tests
    shrink or grow a library scenario without redefining it.  A pre-built
    ``deployment`` may be supplied when the caller needs to inspect it
    after the run; builder ``overrides`` are rejected in that case since
    they could not apply.
    """
    if deployment is None:
        deployment = scenario.build(mode, **overrides)
    elif overrides:
        raise TypeError(
            "run_scenario() got both a pre-built deployment and builder "
            f"overrides {sorted(overrides)}; apply the overrides when building"
        )
    active_checkers = list(checkers) if checkers is not None else scenario.default_checkers()
    for checker in active_checkers:
        checker.attach(deployment)

    simulator = deployment.simulator
    # An open-loop scenario's build leaves its driver here; its load runs as
    # one measured window (warm-up, then ``duration``) instead of a plain
    # closed loop.
    driver = deployment.extras.get("open_loop_driver")
    load_seconds = scenario.duration + (scenario.warmup if driver is not None else 0.0)
    start = simulator.now
    end = start + load_seconds

    events_applied: List[Tuple[float, str]] = []
    for event in scenario.events:
        if event.at > load_seconds:
            raise ValueError(
                f"scenario {scenario.name!r}: event {event.label} at t={event.at} "
                f"never fires (the load runs for {load_seconds})"
            )

        def fire(event: ScenarioEvent = event) -> None:
            events_applied.append((round(simulator.now - start, 6), event.label))
            event.apply(deployment)

        simulator.call_at(start + event.at, fire, label=f"scenario:{event.label}")

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
                simulator.call_at(start + at, capture, label="scenario:probe")

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
        if simulator.now < end:
            simulator.call_later(scenario.check_interval, sample, label="scenario:check")

    simulator.call_later(scenario.check_interval, sample, label="scenario:check")

    measured = None
    if driver is None:
        deployment.start_clients()
        simulator.run(until=end)
        deployment.stop_clients()
    else:
        measured = run_open_loop(
            deployment, driver, duration=scenario.duration, warmup=scenario.warmup, slo=scenario.slo
        )
    simulator.run(until=end + scenario.settle)

    for checker in active_checkers:
        record(checker.name, checker.finalize(deployment))
    deployment.collect_batch_sizes()

    shards = getattr(deployment, "shards", None)
    initial_modes = [group.extras["mode"] for group in (shards or [deployment])]
    expectation_failures: List[str] = []
    if deployment.metrics.completed < scenario.min_completed:
        expectation_failures.append(
            f"only {deployment.metrics.completed} requests completed over the whole "
            f"run (liveness floor {scenario.min_completed})"
        )
    for expectation in scenario.expectations:
        expectation_failures.extend(expectation.evaluate(deployment, initial_modes[0], probes))

    correct = deployment.correct_replicas()
    return ScenarioResult(
        scenario=scenario.name,
        mode="/".join(initial.name.lower() for initial in initial_modes),
        protocol=deployment.protocol,
        duration=scenario.duration,
        completed=deployment.metrics.completed,
        client_timeouts=deployment.client_pool.total_timeouts,
        max_view=max((replica.view for replica in correct), default=0),
        final_modes=tuple(sorted({replica.mode.name for replica in correct})),
        # Telemetry over *all* replicas: a crashed-then-recovered replica
        # stays in the conservative faulty set, but its state transfer is
        # exactly what the report should show.
        state_transfers=sum(
            replica.state_transfers_completed for replica in deployment.replicas.values()
        ),
        events_applied=events_applied,
        invariant_violations=violations,
        expectation_failures=expectation_failures,
        events_processed=simulator.events_processed,
        simulated_seconds=simulator.now,
        transactions=deployment.transaction_stats() if shards else None,
        per_shard_completed=tuple(deployment.per_shard_completed()) if shards else None,
        measured=measured,
    )


def run_scenario_matrix(
    scenarios: Sequence,
    modes: Sequence[Optional[Mode]] = (Mode.LION, Mode.DOG, Mode.PEACOCK),
    checker_factory: Optional[Callable[[], Sequence[InvariantChecker]]] = None,
    **overrides,
) -> List[ScenarioResult]:
    """Run every scenario in every mode; returns all results (no assertion).

    Pass ``modes=(None,)`` for scenarios that fix their own modes (a sharded
    library).  Checkers are stateful and single-run, so custom ones are
    supplied as a ``checker_factory`` called once per leg; passing
    ``checkers=`` here would silently share one instance set across legs
    (cross-contaminating their incremental state) and is rejected, whatever
    the scenario kind.
    """
    if "checkers" in overrides:
        raise TypeError(
            "run_scenario_matrix() does not accept 'checkers': checker instances "
            "are stateful and single-run; pass checker_factory=... instead"
        )
    return [
        run_scenario(
            scenario,
            mode,
            checkers=checker_factory() if checker_factory is not None else None,
            **overrides,
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
    "Scenario",
    "ScenarioResult",
    "run_scenario",
    "run_scenario_matrix",
]
