"""The closed-loop adaptive mode controller.

SeeMoRe's headline ability is *moving between* modes so a deployment pays
only for the fault model it currently faces (Section 5.4); this module
closes that loop in-protocol.  An :class:`AdaptiveModeController` polls a
running deployment on its runtime's clock, pulls fresh evidence records
from every replica and client log, aggregates them into a
:class:`~repro.adaptive.estimator.FaultEnvironmentEstimate`, and picks the
cheapest mode that is safe for the environment it sees:

* **active Byzantine evidence** (equivocation, conflicting votes, invalid
  signatures, forged replies from public-cloud nodes) → **Peacock**: run
  full PBFT among the proxies and trust nothing about who orders;
* **crash/churn evidence** (primary timeouts, suspicion-driven view
  changes, commit-latency drift) without Byzantine proof → **Dog**: keep
  the trusted primary but move the quorum off the crash-suspect private
  cloud, whose ``2m+1`` public quorum no private crash can stall;
* **a quiet environment** → **Lion**: two phases, ``O(n)`` messages, the
  cheapest mode the paper has.

Safety never depends on the controller being right: every switch goes
through the existing consensus-ordered mode-switch path (a trusted
replica's ``MODE-CHANGE`` followed by a view change), never out-of-band,
so a wrong or even adversarially-induced decision costs only performance.
Two dampers keep transient noise from thrashing the cluster:

* **hysteresis** -- a recommendation must survive several consecutive
  polls before the controller acts on it, and de-escalation additionally
  requires a full *quiet period* with no fresh evidence;
* **cooldown** -- a minimum simulated-time gap between initiated switches,
  so an oscillating attacker cannot make the cluster spend its life in
  view changes.

The controller reads evidence through direct references to the in-process
logs -- the simulation stand-in for the signed evidence messages a real
deployment would gossip -- but *acts* only through the protocol, so the
guarantees replicas rely on are exactly those of Section 5.4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.adaptive.estimator import FaultEnvironmentEstimate, FaultEnvironmentEstimator
from repro.adaptive.evidence import EvidenceKind, EvidenceRecord
from repro.core.modes import Mode


@dataclass(frozen=True)
class AdaptivePolicy:
    """Tuning knobs of the controller.

    Attributes:
        poll_interval: simulated seconds between controller polls.
        window: sliding evidence window fed to the estimator.
        byzantine_escalation_events: windowed Byzantine-class events needed
            to recommend Peacock.
        churn_escalation_events: windowed churn-class events needed to
            recommend Dog.
        quiet_period: seconds without *any* fresh evidence before the
            controller recommends de-escalating to Lion.
        cooldown: minimum gap between controller-initiated switches.
        hysteresis_polls: consecutive polls that must agree on a
            recommendation before the controller acts on it.
        latency_drift_factor: recent mean commit latency above this
            multiple of the current mode's learned baseline emits one
            synthetic ``LATENCY_DRIFT`` churn record per crossing
            (``0`` disables drift detection).
    """

    poll_interval: float = 0.02
    window: float = 0.2
    byzantine_escalation_events: int = 2
    churn_escalation_events: int = 4
    quiet_period: float = 0.25
    cooldown: float = 0.15
    hysteresis_polls: int = 2
    latency_drift_factor: float = 4.0

    def __post_init__(self) -> None:
        if self.poll_interval <= 0:
            raise ValueError(f"poll interval must be positive: {self.poll_interval}")
        if self.hysteresis_polls < 1:
            raise ValueError(f"hysteresis needs at least one poll: {self.hysteresis_polls}")
        if self.cooldown < 0 or self.quiet_period < 0:
            raise ValueError("cooldown and quiet period cannot be negative")


@dataclass
class ControllerDecision:
    """One switch the controller initiated, with the estimate that drove it."""

    at: float
    from_mode: Mode
    to_mode: Mode
    reason: str
    estimate: FaultEnvironmentEstimate
    applied_at: Optional[float] = None

    @property
    def applied(self) -> bool:
        return self.applied_at is not None

    def as_row(self) -> Dict[str, object]:
        """Flat dict for :func:`repro.analysis.report.format_adaptive_decisions`."""
        return {
            "t": round(self.at, 4),
            "switch": f"{self.from_mode.name.lower()}->{self.to_mode.name.lower()}",
            "reason": self.reason,
            "m_hat": self.estimate.active_byzantine,
            "c_hat": self.estimate.active_crash,
            "byz_events": self.estimate.byzantine_events,
            "churn_events": self.estimate.churn_events,
            "applied": "yes" if self.applied else "no",
        }


class AdaptiveModeController:
    """Evidence-driven Lion/Dog/Peacock switching for one replica group.

    ``group`` is the :class:`~repro.cluster.wiring.Group` the controller
    watches and switches (its replicas, config and own metrics recorder);
    ``deployment`` supplies what is deployment-wide: the runtime whose clock
    and timers it polls on, and the client pool.  Clients are shared by
    every group of a deployment, so evidence implicating another group's
    replicas is filtered out by the estimator.
    """

    def __init__(
        self,
        group: Any,
        deployment: Any,
        policy: Optional[AdaptivePolicy] = None,
        name: str = "adaptive",
    ) -> None:
        self.group = group
        self.deployment = deployment
        self.policy = policy or AdaptivePolicy()
        self.name = name
        self.config = group.config
        self.estimator = FaultEnvironmentEstimator(
            private_ids=self.config.private_replicas,
            public_ids=self.config.public_replicas,
            window=self.policy.window,
        )
        self._runtime = deployment.runtime
        self._offsets: Dict[str, int] = {}
        self._started = False
        self._stopped = False
        # Incremented by every (re)start; pending ticks from a previous
        # poll loop see a stale generation and die, so stop()+start()
        # never leaves two loops running.
        self._generation = 0

        self.decisions: List[ControllerDecision] = []
        #: Observed (at, from_mode, to_mode) transitions, however caused.
        self.mode_transitions: List[Tuple[float, Mode, Mode]] = []
        self.polls = 0
        self.deferred_polls = 0

        self._last_observed_mode: Optional[Mode] = None
        self._last_initiated_at = -float("inf")
        self._pending_recommendation: Optional[Mode] = None
        self._agreeing_polls = 0
        # Per-mode learned latency baseline (mean seconds) for drift detection.
        self._latency_baseline: Dict[Mode, float] = {}
        self._latency_offset = 0
        self._drift_active = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Schedule the poll loop on the deployment's runtime clock.

        Idempotent while running, and restartable after :meth:`stop` — a
        controller paused for a maintenance window resumes polling from
        the current state (readers' offsets and the estimator survive).
        """
        if self._started and not self._stopped:
            return
        self._started = True
        self._stopped = False
        self._generation += 1
        self._schedule_tick(self._generation)

    def stop(self) -> None:
        self._stopped = True

    def _schedule_tick(self, generation: int) -> None:
        self._runtime.call_later(
            self.policy.poll_interval,
            lambda: self._tick(generation),
            label=f"{self.name}:poll",
        )

    def _tick(self, generation: int) -> None:
        if self._stopped or generation != self._generation:
            return
        self.poll()
        self._schedule_tick(generation)

    # -- observation ---------------------------------------------------------

    def current_mode(self) -> Mode:
        """The mode the group operates in (most-progressed live replica)."""
        best: Optional[Any] = None
        for replica in self.group.replicas.values():
            if replica.crashed:
                continue
            if best is None or replica.view > best.view:
                best = replica
        if best is None:
            return self.group.mode
        return best.mode

    def _gather_evidence(self) -> None:
        logs = [replica.evidence for replica in self.group.replicas.values()]
        # Re-listed every poll, so surged clients count.
        logs.extend(client.evidence for client in self.deployment.clients)
        for log in logs:
            fresh = log.records_since(self._offsets.get(log.observer, 0))
            if fresh:
                self.estimator.observe(fresh)
            # Logical length, not offset+len(fresh): the two differ when the
            # log compacted past a reader that fell behind.
            self._offsets[log.observer] = len(log)

    def _check_latency_drift(self, mode: Mode, now: float) -> None:
        factor = self.policy.latency_drift_factor
        if factor <= 0:
            return
        metrics = self.group.metrics
        fresh = [
            record.latency
            for record in metrics.records_since(self._latency_offset)
            if record.completed_at >= now - self.policy.window
        ]
        self._latency_offset = metrics.completed
        if not fresh:
            return
        mean = sum(fresh) / len(fresh)
        baseline = self._latency_baseline.get(mode)
        if baseline is None:
            # First window observed in this mode becomes its baseline, so a
            # switch to a slower mode never reads as drift.
            self._latency_baseline[mode] = mean
            return
        if mean < baseline:
            # The baseline tracks the *best* window seen in this mode: the
            # first window after an escalation is sampled while the attack
            # that caused it still inflates latency, and only a
            # floor-tracking baseline re-sensitizes drift detection once
            # the attack subsides.
            self._latency_baseline[mode] = mean
        if mean > factor * baseline:
            # Edge-triggered: one record per excursion above the baseline,
            # not one per poll while elevated — a sustained excursion must
            # not cross the churn threshold on its own.
            if not self._drift_active:
                self._drift_active = True
                self.estimator.observe(
                    [
                        _drift_record(
                            at=now,
                            observer=self.name,
                            detail=f"mean={mean:.5f}s baseline={baseline:.5f}s in {mode.name}",
                        )
                    ]
                )
        else:
            self._drift_active = False

    # -- the decision loop ----------------------------------------------------

    def recommend(self, estimate: FaultEnvironmentEstimate, current: Mode, now: float) -> Mode:
        """The cheapest mode that is safe for the estimated environment.

        Escalations (toward Peacock) act on thresholds alone; *any*
        de-escalation additionally requires the Byzantine evidence to be a
        full quiet period old.  Without that, churn staying above its
        threshold while an attacker merely pauses past the evidence window
        would step Peacock down to Dog and back — the treadmill the
        dampers exist to prevent.  Mode severity is the enum order
        (Lion < Dog < Peacock).
        """
        policy = self.policy
        if estimate.byzantine_events >= policy.byzantine_escalation_events:
            return Mode.PEACOCK
        if estimate.churn_events >= policy.churn_escalation_events:
            byzantine_quiet = now - estimate.last_byzantine_at
            if Mode.DOG < current and byzantine_quiet < policy.quiet_period:
                return current
            return Mode.DOG
        if estimate.quiet_for(now) >= policy.quiet_period:
            return Mode.LION
        # Not hostile enough to escalate, not quiet long enough to relax.
        return current

    def poll(self) -> Optional[ControllerDecision]:
        """One control iteration; returns the decision if a switch was initiated."""
        self.polls += 1
        now = self._runtime.now
        current = self.current_mode()
        if self._last_observed_mode is None:
            self._last_observed_mode = current
        elif current is not self._last_observed_mode:
            self.mode_transitions.append((now, self._last_observed_mode, current))
            for decision in reversed(self.decisions):
                if decision.to_mode is current and not decision.applied:
                    decision.applied_at = now
                    break
            self._last_observed_mode = current

        self._gather_evidence()
        self._check_latency_drift(current, now)
        estimate = self.estimator.estimate(now)
        target = self.recommend(estimate, current, now)

        if target is current:
            self._pending_recommendation = None
            self._agreeing_polls = 0
            return None

        # Hysteresis: the recommendation must hold for consecutive polls.
        if target is self._pending_recommendation:
            self._agreeing_polls += 1
        else:
            self._pending_recommendation = target
            self._agreeing_polls = 1
        if self._agreeing_polls < self.policy.hysteresis_polls:
            return None

        # Cooldown: never switch again too soon after the last initiation.
        if now - self._last_initiated_at < self.policy.cooldown:
            return None

        # Never race an in-flight view change: evidence keeps accumulating
        # and the next poll retries once the view is installed.
        initiator = self._pick_initiator()
        if initiator is None:
            self.deferred_polls += 1
            return None

        reason = self._reason_for(target, estimate)
        decision = ControllerDecision(
            at=now, from_mode=current, to_mode=target, reason=reason, estimate=estimate
        )
        self.decisions.append(decision)
        self._last_initiated_at = now
        self._pending_recommendation = None
        self._agreeing_polls = 0
        initiator.request_mode_switch(target)
        return decision

    def _pick_initiator(self) -> Optional[Any]:
        """A live trusted replica that is not mid-view-change (paper 5.4)."""
        for replica_id in self.config.private_replicas:
            replica = self.group.replicas[replica_id]
            if not replica.crashed and not replica.in_view_change:
                return replica
        return None

    def _reason_for(self, target: Mode, estimate: FaultEnvironmentEstimate) -> str:
        if target is Mode.PEACOCK:
            suspects = ",".join(sorted(estimate.byzantine_suspects)) or "unattributed"
            return f"byzantine evidence ({estimate.byzantine_events} events; {suspects})"
        if target is Mode.DOG:
            return f"crash/churn evidence ({estimate.churn_events} events)"
        return "quiet period elapsed"

    # -- introspection ---------------------------------------------------------

    @property
    def switches_initiated(self) -> int:
        return len(self.decisions)

    @property
    def switches_applied(self) -> int:
        return sum(1 for decision in self.decisions if decision.applied)

    def within_sized_tolerance(self) -> bool:
        """Whether observed activity still fits the deployment's sized (m, c).

        When this goes false no mode can restore the fault bound -- the
        cluster needs *re-sizing* (more rented nodes), which is the
        planner's job, not the controller's; reports surface it as an
        alert.
        """
        estimate = self.estimator.estimate(self._runtime.now)
        return estimate.within_tolerance(
            self.config.byzantine_tolerance, self.config.crash_tolerance
        )

    def decision_rows(self) -> List[Dict[str, object]]:
        return [decision.as_row() for decision in self.decisions]


def _drift_record(at: float, observer: str, detail: str) -> EvidenceRecord:
    return EvidenceRecord(
        at=at,
        kind=EvidenceKind.LATENCY_DRIFT,
        observer=observer,
        suspect=None,
        detail=detail,
    )


__all__ = ["AdaptivePolicy", "ControllerDecision", "AdaptiveModeController"]
