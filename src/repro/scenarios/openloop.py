"""Open-loop surge scenarios: millions of modeled users against one cluster.

A closed-loop scenario can only offer as much load as its clients' windows
allow, so overload never shows up as latency — it shows up as a slower
client loop.  The scenarios here carry an
:class:`~repro.scenarios.engine.OpenLoop` section instead: a
:class:`~repro.workload.openloop.ClientPopulation` models millions of
virtual users as an arrival process, multiplexed over a small pool of real
connections, and latency is stamped from *arrival* time, so queueing
anywhere in the pipeline counts against the SLO.

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

from dataclasses import replace
from functools import partial
from typing import Dict

from repro.core.admission import AdmissionPolicy
from repro.core.batching import BatchPolicy
from repro.scenarios.engine import OpenLoop, Scenario
from repro.workload.openloop import BurstyArrivals
from repro.workload.slo import SloSpec

# -- the library ------------------------------------------------------------------

_SURGE_SLO = SloSpec(percentile=0.99, bound=0.1, max_violation_fraction=0.0)

SURGE_ADMISSION_ON = Scenario(
    name="surge-admission-on",
    description=(
        "1M modeled users surging ~5x over capacity; the primary sheds past "
        "its watermark with signed Busy rejects and the p99 SLO holds"
    ),
    # Bursty on-off arrivals: 400 requests/s with surges to 8,000 for half of
    # every second.  The section's default ``max_backlog`` is deliberately
    # small: the point of the pair is primary-side queueing, so the driver
    # queue is kept too short to dominate the latency story.
    open_loop=OpenLoop(
        arrivals=partial(
            BurstyArrivals, base_rate=400.0, burst_rate=8_000.0, on_duration=0.5, off_duration=0.5
        ),
        slo=_SURGE_SLO,
    ),
    admission=AdmissionPolicy(max_outstanding=32),
    batch_policy=BatchPolicy(max_batch=1, linger=0.0, pipeline_depth=1),
    duration=2.0,
    # A surge has no fault schedule to settle after and no liveness floor:
    # its verdict is the SLO checker's, sampled once per SLO bin.
    settle=0.0,
    min_completed=0,
    check_interval=_SURGE_SLO.bin_width,
    # Far above the SLO bound, so the plain retransmit timer stays out of the
    # overload story — backpressure flows only through signed ``Busy`` rejects.
    client_timeout=30.0,
)

SURGE_ADMISSION_OFF = replace(
    SURGE_ADMISSION_ON,
    name="surge-admission-off",
    description=(
        "the identical surge with admission control off; the primary queue "
        "bloats, served p99 blows the bound, and the SLA checker fires"
    ),
    admission=None,
    # Without Busy rejects the retry budget is moot; retry-forever keeps the
    # connections honest about what an uncontrolled client does.
    open_loop=replace(SURGE_ADMISSION_ON.open_loop, max_busy_retries=None),
)

OPEN_LOOP_SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (SURGE_ADMISSION_ON, SURGE_ADMISSION_OFF)
}


__all__ = [
    "OPEN_LOOP_SCENARIOS",
    "SURGE_ADMISSION_ON",
    "SURGE_ADMISSION_OFF",
]
