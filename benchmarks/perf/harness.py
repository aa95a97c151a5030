"""Simulator performance harness: standard workloads, machine-readable output.

The harness runs a fixed matrix of workloads — Lion / Dog / Peacock,
batched and unbatched, f = 1..3, with and without faults (via the PR 2
scenario engine), plus an adaptive-controller attack/recovery case and
the sharded scale-out cases — and records for each case:

* ``events_per_second`` — simulator events executed per wall-clock second
  (the headline number; protocol changes move events-per-request, engine
  changes move seconds-per-event, this metric tracks the product);
* ``sim_seconds_per_wall_second`` — how much simulated time one wall second
  buys;
* ``peak_heap_bytes`` — tracemalloc peak over a dedicated instrumented run
  (measured separately so the timing runs stay undistorted);
* committed-request counts, which double as a determinism check: every
  timing repeat of a case must commit exactly the same number of requests.

Results are written as ``BENCH_<date>.json`` in the schema below, so the
repository accumulates a performance trajectory that
``benchmarks/perf/compare.py`` can diff in CI.

Schema (``schema_version`` 1)::

    {
      "schema_version": 1,
      "generated_at": "<ISO-8601 UTC>",
      "host": {"python": "...", "platform": "...", "cpu_count": N,
               "calibration_ops_per_second": ...},
      "config": {"repeats": N, "smoke": bool},
      "cases": [
        {
          "name": "lion-f1-batched",
          "protocol": "seemore-lion",
          "crash_tolerance": 1, "byzantine_tolerance": 1,
          "batched": true, "fault_scenario": null,
          "sim_duration": 0.5,
          "completed_requests": N, "events_processed": N,
          "wall_seconds": <min over repeats>,
          "events_per_second": ..., "sim_seconds_per_wall_second": ...,
          "throughput_requests_per_second": ...,
          "peak_heap_bytes": N, "deterministic": true,
          "gated": true                # false: reported, never gated
        }, ...
      ],
      "summary": {
        "events_per_second_geomean": ...,        # gated rows only
        "batched_events_per_second_geomean": ...,
        "peak_heap_bytes_max": N
      }
    }

Every row is a deterministic simulator run.  Wall-clock numbers on the
real-network backends come from ``benchmarks/e2e`` and nowhere else.

Determinism guarantee: the caches introduced by the hot-path overhaul
change only wall-clock speed, never simulated behaviour — every case
asserts identical committed counts across repeats, and the tier-1
scenario-matrix tests assert identical committed *state* across replicas.
"""

from __future__ import annotations

import datetime
import json
import math
import hashlib
import heapq
import os
import pathlib
import platform
import sys
import time
import tracemalloc
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Dict, List, Optional, Sequence

from repro.cluster import build_sharded_seemore, builder_for, run_deployment
from repro.core import BatchPolicy, Mode
from repro.workload import Workload, WorkloadSpec

SCHEMA_VERSION = 1

#: The batching policy of the "standard batched workload" (mirrors the PR 1
#: throughput benchmarks: batches actually fill instead of degenerating to
#: one request per slot).
STANDARD_BATCH = dict(max_batch=16, linger=0.002)
STANDARD_CLIENT_WINDOW = 32

_MODES = {
    "seemore-lion": Mode.LION,
    "seemore-dog": Mode.DOG,
    "seemore-peacock": Mode.PEACOCK,
}


@dataclass(frozen=True)
class PerfCase:
    """One measured workload of the standard matrix."""

    name: str
    protocol: str
    crash_tolerance: int = 1
    byzantine_tolerance: int = 1
    batched: bool = True
    num_clients: int = 6
    client_window: int = STANDARD_CLIENT_WINDOW
    duration: float = 0.4
    warmup: float = 0.1
    seed: int = 3
    fault_scenario: Optional[str] = None  # name in the PR 2 scenario library
    # Sharded cases (protocol "seemore-sharded"): shard count and the
    # fraction of operations running the cross-shard two-phase path.  The
    # client count scales with the shard count so each shard sees the same
    # offered load as the single-cluster cases — the committed-ops/sim-second
    # ratio between sharded-Nx and sharded-1x is the scale-out headline.
    num_shards: int = 1
    cross_shard_fraction: float = 0.0
    # Whether this row participates in the regression gate (compare.py and
    # the sim geomeans).  Open-loop rows are reported-only: their headline
    # numbers are latency percentiles under deliberate overload, not
    # engine speed, so gating them would alarm on workload-shape tweaks.
    gated: bool = True
    # Open-loop cases: a name from
    # :data:`repro.scenarios.openloop.OPEN_LOOP_SCENARIOS`, with an
    # optional surge-rate override for the offered-load sweep.
    open_loop_scenario: Optional[str] = None
    surge_rate: Optional[float] = None

    def batch_policy(self) -> Optional[BatchPolicy]:
        if not self.batched:
            return None
        return BatchPolicy(**STANDARD_BATCH)


#: Names of the CI smoke subset.  Smoke cases are the *same case objects*
#: as the full matrix (identical durations and parameters), so their
#: events/sec numbers are directly comparable against a committed
#: full-matrix baseline — a shortened variant under the same name would
#: carry a different warmup fraction and bias the regression gate.
SMOKE_CASE_NAMES = (
    "lion-f1-batched",
    "dog-f1-batched",
    "peacock-f1-batched",
    "lion-f1-batched-primary-crash",
    "sharded-4x-f1-batched",
    "adaptive-attack-recovery",
)


def standard_cases(smoke: bool = False) -> List[PerfCase]:
    """The standard matrix (or its few-minute CI smoke subset)."""
    cases: List[PerfCase] = []
    protocols = ("seemore-lion", "seemore-dog", "seemore-peacock")
    if smoke:
        return [case for case in standard_cases() if case.name in SMOKE_CASE_NAMES]

    for protocol in protocols:
        short = protocol.replace("seemore-", "")
        for tolerance in (1, 2, 3):
            for batched in (True, False):
                flavour = "batched" if batched else "unbatched"
                cases.append(
                    PerfCase(
                        name=f"{short}-f{tolerance}-{flavour}",
                        protocol=protocol,
                        crash_tolerance=tolerance,
                        byzantine_tolerance=tolerance,
                        batched=batched,
                        client_window=STANDARD_CLIENT_WINDOW if batched else 4,
                        duration=0.4 if batched else 0.3,
                    )
                )
        cases.append(
            PerfCase(
                name=f"{short}-f1-batched-primary-crash",
                protocol=protocol,
                fault_scenario="primary-crash-mid-batch",
                duration=0.7,
            )
        )

    # Adaptive-controller case: an equivocation attack forces Lion up to
    # Peacock and a quiet period brings it back; the committed-request and
    # throughput numbers show de-escalation recovering Lion-like service
    # after the attack subsides (the run fails outright if the cycle or
    # any safety checker does).  The duration comes from the scenario
    # itself so the recorded sim_duration and throughput stay honest if
    # the scenario's timing is retuned.
    from repro.scenarios.adaptive import DEESCALATE_AFTER_QUIET_PERIOD

    cases.append(
        PerfCase(
            name="adaptive-attack-recovery",
            protocol="seemore-lion",
            fault_scenario=DEESCALATE_AFTER_QUIET_PERIOD.name,
            duration=DEESCALATE_AFTER_QUIET_PERIOD.duration,
        )
    )

    # Sharded scale-out cases: 1-shard as the single-cluster reference
    # (same per-shard knobs, so the Nx/1x committed-ops/sim-second ratio
    # is the scale-out factor), 4 shards on pure single-shard traffic,
    # and 4 shards with 10% cross-shard transactions (the 2PC overhead).
    for num_shards, cross_fraction, suffix in (
        (1, 0.0, "sharded-1x-f1-batched"),
        (4, 0.0, "sharded-4x-f1-batched"),
        (4, 0.1, "sharded-4x-f1-xshard10"),
    ):
        cases.append(
            PerfCase(
                name=suffix,
                protocol="seemore-sharded",
                num_shards=num_shards,
                cross_shard_fraction=cross_fraction,
                num_clients=6 * num_shards,
            )
        )
    return cases


#: The seed the open-loop rows have always run on (the surge library's own).
_OPEN_LOOP_SEED = 7


def openloop_cases() -> List[PerfCase]:
    """The open-loop offered-load sweep (reported, never gated).

    Three surge rates over the admission-controlled scenario show how
    served latency degrades as offered load climbs past capacity, and the
    no-admission case at the middle rate is the bufferbloat control: same
    surge, no shedding, latency an order of magnitude worse.
    """
    sweep = [
        PerfCase(
            name=f"openloop-surge-{label}",
            protocol="seemore-lion",
            open_loop_scenario="surge-admission-on",
            surge_rate=rate,
            duration=1.0,
            warmup=0.25,
            seed=_OPEN_LOOP_SEED,
            gated=False,
        )
        for label, rate in (("2x", 3_200.0), ("5x", 8_000.0), ("10x", 16_000.0))
    ]
    sweep.append(
        PerfCase(
            name="openloop-surge-5x-noadmission",
            protocol="seemore-lion",
            open_loop_scenario="surge-admission-off",
            surge_rate=8_000.0,
            duration=1.0,
            warmup=0.25,
            seed=_OPEN_LOOP_SEED,
            gated=False,
        )
    )
    return sweep


#: The one open-loop row CI's perf-smoke run reports alongside the gated
#: smoke subset (the cheapest point of the sweep).
OPENLOOP_SMOKE_CASE_NAME = "openloop-surge-2x"


# -- running one case -------------------------------------------------------------


def _scenario_for(case: PerfCase):
    """The library scenario behind a scenario-backed case, on the case's seed."""
    from repro.scenarios.adaptive import ADAPTIVE_SCENARIOS
    from repro.scenarios.library import SCENARIOS
    from repro.scenarios.openloop import OPEN_LOOP_SCENARIOS

    if case.open_loop_scenario is None:
        library = {**SCENARIOS, **ADAPTIVE_SCENARIOS}
        return replace(library[case.fault_scenario], seed=case.seed)
    scenario = OPEN_LOOP_SCENARIOS[case.open_loop_scenario]
    section = replace(scenario.open_loop, warmup=case.warmup)
    if case.surge_rate is not None:
        section = replace(section, arrivals=partial(section.arrivals, burst_rate=case.surge_rate))
    return replace(scenario, seed=case.seed, duration=case.duration, open_loop=section)


def _run_once(case: PerfCase) -> Dict[str, Any]:
    """One measured execution; returns wall time, events, completions."""
    if case.fault_scenario is not None or case.open_loop_scenario is not None:
        from repro.scenarios.engine import run_scenario

        scenario = _scenario_for(case)
        # An open-loop row reports the SLO verdict of its measured window
        # instead of gating on it (the no-admission row is *meant* to
        # violate), so no live checker samples beside it, and it counts the
        # measured window's completions.
        open_loop = scenario.open_loop is not None
        start = time.perf_counter()
        result = run_scenario(scenario, _MODES[case.protocol], checkers=() if open_loop else None)
        wall = time.perf_counter() - start
        run = {
            "wall": wall,
            "events": result.events_processed,
            "completed": result.completed,
            "sim_seconds": result.simulated_seconds,
        }
        if open_loop:
            run["completed"] = result.measured.served
            run["extra"] = _open_loop_columns(result.measured, scenario)
        else:
            result.assert_ok()
        return run

    if case.protocol == "seemore-sharded":
        deployment = build_sharded_seemore(
            num_shards=case.num_shards,
            crash_tolerance=case.crash_tolerance,
            byzantine_tolerance=case.byzantine_tolerance,
            num_clients=case.num_clients,
            workload=Workload.build(
                WorkloadSpec(
                    kind="sharded-kv",
                    seed=case.seed,
                    cross_shard_fraction=case.cross_shard_fraction,
                )
            ),
            seed=case.seed,
            batch_policy=case.batch_policy(),
            client_window=case.client_window,
        )
    else:
        deployment = builder_for(case.protocol)(
            crash_tolerance=case.crash_tolerance,
            byzantine_tolerance=case.byzantine_tolerance,
            num_clients=case.num_clients,
            workload=Workload.build("0/0"),
            seed=case.seed,
            batch_policy=case.batch_policy(),
            client_window=case.client_window,
        )
    start = time.perf_counter()
    result = run_deployment(deployment, duration=case.duration, warmup=case.warmup)
    wall = time.perf_counter() - start
    return {
        "wall": wall,
        "events": deployment.simulator.events_processed,
        "completed": result.completed,
        "sim_seconds": deployment.simulator.now,
    }


def _open_loop_columns(result, scenario) -> Dict[str, Any]:
    """The open-loop headline numbers of a case row.

    Offered load, served percentiles, shed/dropped counters and the SLO
    verdict ride beside the usual events/sec accounting.
    """
    return {
        "offered_rate_reqs_per_s": round(result.offered_rate, 1),
        "p50_latency_ms": round(result.latency.p50 * 1000.0, 3),
        "p99_latency_ms": round(result.latency.p99 * 1000.0, 3),
        "p999_latency_ms": round(result.latency.p999 * 1000.0, 3),
        "offered": result.offered,
        "dropped": result.dropped,
        "shed": result.shed,
        "busy_rejects": result.busy_rejects,
        "slo_holds": result.slo_holds,
        "admission": scenario.admission is not None,
    }


def run_case(case: PerfCase, repeats: int = 3, measure_heap: bool = True) -> Dict[str, Any]:
    """Run one case ``repeats`` times plus one instrumented heap pass.

    The reported wall time is the *minimum* over the timing repeats — the
    standard ``timeit`` estimator: repeats execute identical work, so the
    fastest run is the one least disturbed by scheduler/thermal noise.  The
    heap pass runs under ``tracemalloc`` and contributes only its peak.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1: {repeats}")

    runs = [_run_once(case) for _ in range(repeats)]

    completions = {run["completed"] for run in runs}
    events = {run["events"] for run in runs}
    if len(completions) != 1 or len(events) != 1:  # pragma: no cover - an engine bug
        raise AssertionError(
            f"case {case.name!r} is non-deterministic across repeats: "
            f"completions={sorted(completions)}, events={sorted(events)}"
        )

    peak_heap = None
    if measure_heap:
        tracemalloc.start()
        try:
            _run_once(case)
            _, peak_heap = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

    wall = min(run["wall"] for run in runs)
    reference = runs[0]
    row = {
        "name": case.name,
        "protocol": case.protocol,
        "crash_tolerance": case.crash_tolerance,
        "byzantine_tolerance": case.byzantine_tolerance,
        "batched": case.batched,
        "fault_scenario": case.fault_scenario,
        "num_shards": case.num_shards,
        "sim_duration": round(case.duration, 4),
        "completed_requests": reference["completed"],
        "events_processed": reference["events"],
        "wall_seconds": round(wall, 4),
        "events_per_second": round(reference["events"] / wall, 1),
        "sim_seconds_per_wall_second": round(reference["sim_seconds"] / wall, 4),
        "throughput_requests_per_second": round(reference["completed"] / case.duration, 1),
        "peak_heap_bytes": peak_heap,
        "deterministic": True,
        "gated": case.gated,
    }
    row.update(reference.get("extra", {}))
    return row


# -- the full suite ---------------------------------------------------------------


def calibration_score(iterations: int = 120_000, repeats: int = 3) -> float:
    """Machine-speed proxy: fixed sha256 + heap-churn work per second.

    The mix mirrors the simulator's hot path (hashing and heap ops), so
    dividing a case's events/sec by this score yields a roughly
    machine-independent number.  ``compare.py`` uses it to normalize a run
    from one machine (e.g. a CI runner) against a baseline recorded on
    another; the min-of-repeats estimator matches the case timings.
    """
    payload = b"x" * 64
    best = float("inf")
    for _ in range(repeats):
        heap: list = []
        start = time.perf_counter()
        for index in range(iterations):
            hashlib.sha256(payload)
            heapq.heappush(heap, ((index * 31) % 997, index))
            if len(heap) > 512:
                heapq.heappop(heap)
        best = min(best, time.perf_counter() - start)
    return iterations / best


def _geomean(values: Sequence[float]) -> Optional[float]:
    values = [value for value in values if value and value > 0]
    if not values:
        return None
    return math.exp(sum(math.log(value) for value in values) / len(values))


def run_suite(
    cases: Optional[Sequence[PerfCase]] = None,
    repeats: int = 3,
    smoke: bool = False,
    measure_heap: bool = True,
    progress: Any = None,
) -> Dict[str, Any]:
    """Run the whole matrix and return the BENCH document (not yet written)."""
    if cases is None:
        cases = standard_cases(smoke=smoke)
    rows: List[Dict[str, Any]] = []
    for case in cases:
        if progress is not None:
            progress(f"running {case.name} ...")
        rows.append(run_case(case, repeats=repeats, measure_heap=measure_heap))

    # The headline geomeans cover the gated rows only (the open-loop sweep
    # is reported beside them).
    sim_rows = [row for row in rows if row["gated"]]
    batched_rows = [
        row for row in sim_rows if row["batched"] and not row["fault_scenario"]
    ]
    heap_values = [row["peak_heap_bytes"] for row in rows if row["peak_heap_bytes"]]
    summary: Dict[str, Any] = {
        "events_per_second_geomean": _round(
            _geomean([row["events_per_second"] for row in sim_rows])
        ),
        "batched_events_per_second_geomean": _round(
            _geomean([row["events_per_second"] for row in batched_rows])
        ),
        "peak_heap_bytes_max": max(heap_values) if heap_values else None,
    }
    # Open-loop rows (reported, never gated): worst served p99 across the
    # sweep and whether every admission-controlled point held its SLO.
    openloop_rows = [row for row in rows if "p99_latency_ms" in row]
    if openloop_rows:
        summary["openloop_p99_latency_ms_max"] = max(
            row["p99_latency_ms"] for row in openloop_rows
        )
        summary["openloop_slo_all_hold"] = all(
            row["slo_holds"]
            for row in openloop_rows
            if row.get("admission") and row["slo_holds"] is not None
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "host": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "calibration_ops_per_second": round(calibration_score(), 1),
        },
        "config": {"repeats": repeats, "smoke": smoke},
        "cases": rows,
        "summary": summary,
    }


def _round(value: Optional[float]) -> Optional[float]:
    return None if value is None else round(value, 1)


def default_output_path(out_dir: Optional[pathlib.Path] = None) -> pathlib.Path:
    """``benchmarks/perf/results/BENCH_<date>.json`` (gitignored directory)."""
    if out_dir is None:
        out_dir = pathlib.Path(__file__).parent / "results"
    stamp = datetime.date.today().isoformat()
    return pathlib.Path(out_dir) / f"BENCH_{stamp}.json"


def write_bench(document: Dict[str, Any], path: pathlib.Path) -> pathlib.Path:
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    return path
