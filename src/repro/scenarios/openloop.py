"""Open-loop surge scenarios: millions of modeled users against one cluster.

A closed-loop scenario (:class:`~repro.scenarios.engine.Scenario`) can only
offer as much load as its clients' windows allow, so overload never shows up
as latency — it shows up as a slower client loop.  The scenarios here use the
open-loop machinery instead: a :class:`~repro.workload.openloop.ClientPopulation`
models millions of virtual users as an arrival process, multiplexed over a
small pool of real connections, and latency is stamped from *arrival*
time, so queueing anywhere in the pipeline counts against the SLO.

The pair of library scenarios tells the admission-control story end to
end on the same surge:

* ``surge-admission-on`` — the primary sheds load past its watermark with
  signed ``Busy`` rejects, connections give up after a few retries, and
  the served-latency SLO **holds** through the surge;
* ``surge-admission-off`` — the same surge with no admission control
  builds a deep primary queue, served latency blows through the bound,
  and the :class:`~repro.workload.slo.SlaViolation` checker **fires**.

Both runs shed or drop the excess somewhere — the difference is whether
the excess also poisons the latency of the requests that *are* served.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.builders import build_seemore
from repro.cluster.deployment import Deployment
from repro.core.admission import AdmissionPolicy
from repro.core.batching import BatchPolicy
from repro.core.modes import Mode
from repro.workload.generator import Workload
from repro.workload.openloop import BurstyArrivals, ClientPopulation
from repro.workload.slo import SlaViolation, SloSpec


@dataclass(frozen=True)
class OpenLoopScenario:
    """One named open-loop surge scenario — pure data, like :class:`Scenario`.

    The arrival process is bursty on-off: ``base_rate`` requests/s with
    surges to ``surge_rate`` for ``on_duration`` out of every
    ``on_duration + off_duration`` seconds, drawn from ``num_users``
    modeled users.  ``connections`` real connections with ``window``
    pipelined requests each bound the outstanding work (and the memory) at
    O(connections x window + backlog), never O(users).

    ``max_backlog`` is deliberately small: the point of the pair of
    library scenarios is primary-side queueing, so the driver queue is
    kept too short to dominate the latency story.
    """

    name: str
    description: str
    num_users: int = 1_000_000
    base_rate: float = 400.0
    surge_rate: float = 8_000.0
    on_duration: float = 0.5
    off_duration: float = 0.5
    connections: int = 32
    window: int = 16
    max_backlog: int = 32
    max_busy_retries: Optional[int] = 2
    admission: Optional[AdmissionPolicy] = None
    slo: SloSpec = field(default_factory=lambda: SloSpec(percentile=0.99, bound=0.1))
    duration: float = 2.0
    warmup: float = 0.5
    crash_tolerance: int = 1
    byzantine_tolerance: int = 1
    batch_size: int = 1
    batch_timeout: float = 0.0
    pipeline_depth: int = 1
    client_timeout: float = 30.0
    workload: str = "0/0"
    seed: int = 7

    # What the engine reads off every scenario kind.  Not fields: a surge
    # has no fault schedule and no settle, its verdict is the SLO checker's,
    # and that checker samples once per SLO bin.
    events = ()
    expectations = ()
    settle = 0.0
    min_completed = 0

    @property
    def check_interval(self) -> float:
        return self.slo.bin_width

    def build(self, mode: Optional[Mode] = None) -> Deployment:
        """Stand up the deployment this scenario runs against (Lion by default).

        The deployment is built with ``num_clients=0``; the connection pool
        comes from :meth:`~repro.workload.client_pool.ClientPool.spawn_open_loop`
        so the modeled population, not a closed loop, decides when requests
        arrive, and the driver is left in ``extras["open_loop_driver"]`` for
        whoever runs the load.  ``client_timeout`` is set far above the SLO
        bound so the plain retransmit timer stays out of the overload story —
        backpressure flows only through signed ``Busy`` rejects.
        """
        deployment = build_seemore(
            crash_tolerance=self.crash_tolerance,
            byzantine_tolerance=self.byzantine_tolerance,
            mode=mode if mode is not None else Mode.LION,
            num_clients=0,
            seed=self.seed,
            client_timeout=self.client_timeout,
            batch_policy=BatchPolicy(
                max_batch=self.batch_size,
                linger=self.batch_timeout,
                pipeline_depth=self.pipeline_depth,
            ),
            admission=self.admission,
            workload=Workload.build(self.workload),
        )
        arrivals = BurstyArrivals(
            base_rate=self.base_rate,
            burst_rate=self.surge_rate,
            on_duration=self.on_duration,
            off_duration=self.off_duration,
            seed=self.seed,
        )
        population = ClientPopulation(num_users=self.num_users, arrivals=arrivals, seed=self.seed)
        deployment.extras["open_loop_driver"] = deployment.client_pool.spawn_open_loop(
            population,
            connections=self.connections,
            max_backlog=self.max_backlog,
            max_busy_retries=self.max_busy_retries,
            window=self.window,
        )
        return deployment

    def default_checkers(self) -> List[SlaViolation]:
        """A live SLO checker judging the same window the measured result does."""
        return [SlaViolation(self.slo, start=self.warmup, end=self.warmup + self.duration)]


# -- the library ------------------------------------------------------------------

_SURGE_SLO = SloSpec(percentile=0.99, bound=0.1, max_violation_fraction=0.0)

SURGE_ADMISSION_ON = OpenLoopScenario(
    name="surge-admission-on",
    description=(
        "1M modeled users surging ~5x over capacity; the primary sheds past "
        "its watermark with signed Busy rejects and the p99 SLO holds"
    ),
    admission=AdmissionPolicy(max_outstanding=32),
    slo=_SURGE_SLO,
)

SURGE_ADMISSION_OFF = OpenLoopScenario(
    name="surge-admission-off",
    description=(
        "the identical surge with admission control off; the primary queue "
        "bloats, served p99 blows the bound, and the SLA checker fires"
    ),
    admission=None,
    # Without Busy rejects the retry budget is moot; retry-forever keeps the
    # connections honest about what an uncontrolled client does.
    max_busy_retries=None,
    slo=_SURGE_SLO,
)

OPEN_LOOP_SCENARIOS: Dict[str, OpenLoopScenario] = {
    scenario.name: scenario
    for scenario in (SURGE_ADMISSION_ON, SURGE_ADMISSION_OFF)
}


__all__ = [
    "OpenLoopScenario",
    "OPEN_LOOP_SCENARIOS",
    "SURGE_ADMISSION_ON",
    "SURGE_ADMISSION_OFF",
]
