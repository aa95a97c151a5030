"""Shared infrastructure for the benchmark harness.

Each benchmark regenerates one table or figure of the paper: it runs the
experiment once (wrapped in ``benchmark.pedantic`` so pytest-benchmark
records the wall-clock cost of the whole experiment), prints the rows /
series the paper reports, and applies *shape* assertions — who wins, by
roughly what factor — rather than absolute-number assertions, since the
substrate is a simulator rather than the authors' EC2 testbed.  The points
of a sweep are independent seeded runs, so :func:`sweep` computes them side
by side on up to two worker processes; the test suite's long scenario and
determinism matrices use it the same way.

Results are echoed into the terminal summary and written as machine-readable
JSON to ``benchmarks/results.json`` (one document per session: a list of
titled sections with their table lines) so ``pytest benchmarks/
--benchmark-only`` leaves a parseable record.  The file is written only when
at least one benchmark actually reported, so runs that collect but deselect
the benchmarks (e.g. ``pytest -m "not slow"``) touch nothing; it is
gitignored.  Wall-clock numbers come from ``benchmarks/e2e``; the exact
simulated counts of the standard workloads are pinned by
``tests/data/perf_counts_golden.json`` (``tests/test_perf_counts.py``).
"""

from __future__ import annotations

import datetime
import json
import multiprocessing
import os
import pathlib
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Sequence

import pytest

from repro.cluster import RunResult, builder_for, run_deployment
from repro.workload import Workload

RESULTS_PATH = pathlib.Path(__file__).parent / "results.json"

# Protocols compared in every figure of Section 6, in the paper's order.
FIGURE_PROTOCOLS = ("bft", "s-upright", "seemore-peacock", "seemore-dog", "seemore-lion", "cft")

# Closed-loop client sweep used for the latency/throughput curves.  The
# paper sweeps the offered load from 10^3 to 10^6 requests/s; in the
# simulator the protocols saturate within a handful of closed-loop clients,
# so a small sweep traces the same curve shape.
CLIENT_SWEEP = (2, 6, 14)
MEASURE_DURATION = 0.25
WARMUP = 0.08

#: Worker processes a sweep spreads its points over.  Every point is a
#: seeded simulation that shares nothing with the others, so the points run
#: side by side on up to two cores and come back exactly as a sequential
#: sweep would compute them.  Without fork or a second core they run in this
#: process.
SWEEP_WORKERS = (
    min(2, os.cpu_count() or 1) if "fork" in multiprocessing.get_all_start_methods() else 1
)

_report_lines: List[str] = []
_report_sections: List[Dict] = []


class BenchReport:
    """Collects the rows a benchmark prints and persists them as JSON."""

    def section(self, title: str) -> None:
        _report_sections.append({"title": title, "lines": []})
        self._emit("")
        self._emit("=" * 78)
        self._emit(title)
        self._emit("=" * 78)

    def line(self, text: str = "") -> None:
        self._emit(text)
        if not _report_sections:
            # Rows reported before the first section() still belong in the
            # JSON artifact, not only in the terminal summary.
            _report_sections.append({"title": "", "lines": []})
        _report_sections[-1]["lines"].append(text)

    def block(self, text: str) -> None:
        for line in text.splitlines():
            self.line(line)

    @staticmethod
    def _emit(line: str) -> None:
        _report_lines.append(line)


@pytest.fixture(scope="session")
def report() -> BenchReport:
    return BenchReport()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _report_lines:
        return
    # Persist once per session, only when a benchmark actually reported.
    RESULTS_PATH.write_text(
        json.dumps(
            {
                "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
                "sections": _report_sections,
            },
            indent=2,
        )
        + "\n"
    )
    terminalreporter.write_line("")
    terminalreporter.write_line("################ reproduced tables and figures ################")
    for line in _report_lines:
        terminalreporter.write_line(line)
    terminalreporter.write_line(f"(machine-readable copy: {RESULTS_PATH})")


# -- experiment helpers ----------------------------------------------------------


def run_point(
    protocol: str,
    num_clients: int,
    crash_tolerance: int,
    byzantine_tolerance: int,
    workload: Workload = None,
    seed: int = 3,
    duration: float = MEASURE_DURATION,
    warmup: float = WARMUP,
    **builder_kwargs,
) -> RunResult:
    """Run one (protocol, client-count) point of a latency/throughput curve."""
    builder = builder_for(protocol)
    deployment = builder(
        crash_tolerance=crash_tolerance,
        byzantine_tolerance=byzantine_tolerance,
        num_clients=num_clients,
        workload=workload or Workload.build("0/0"),
        seed=seed,
        **builder_kwargs,
    )
    return run_deployment(deployment, duration=duration, warmup=warmup)


class _InProcessExecutor(Executor):
    """An executor that runs each submitted call at once, in this process."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as error:
            future.set_exception(error)
        return future


def sweep_pool() -> Executor:
    """An executor over :data:`SWEEP_WORKERS` forked processes (this one if just one).

    What it runs must be a module-level function with picklable arguments
    and results.
    """
    if SWEEP_WORKERS < 2:
        return _InProcessExecutor()
    return ProcessPoolExecutor(SWEEP_WORKERS, mp_context=multiprocessing.get_context("fork"))


def sweep(function: Callable[..., Any], points: Sequence[tuple]) -> List[Any]:
    """``[function(*point) for point in points]``, computed by a :func:`sweep_pool`."""
    with sweep_pool() as pool:
        return list(pool.map(function, *zip(*points)))


def run_curves(
    crash_tolerance: int,
    byzantine_tolerance: int,
    workload: Workload = None,
    protocols: Sequence[str] = FIGURE_PROTOCOLS,
    client_counts: Sequence[int] = CLIENT_SWEEP,
    **kwargs,
) -> Dict[str, List[RunResult]]:
    """Latency/throughput curves for every protocol in one figure panel."""
    points = [
        (protocol, count, crash_tolerance, byzantine_tolerance, workload, kwargs)
        for protocol in protocols
        for count in client_counts
    ]
    results = iter(sweep(_run_curve_point, points))
    return {protocol: [next(results) for _ in client_counts] for protocol in protocols}


def _run_curve_point(protocol, count, crash_tolerance, byzantine_tolerance, workload, kwargs):
    return run_point(
        protocol, count, crash_tolerance, byzantine_tolerance, workload=workload, **kwargs
    )


def peak(curve: List[RunResult]) -> float:
    """Peak throughput (requests/second) along one curve."""
    return max(result.throughput for result in curve)


def curve_rows(curves: Dict[str, List[RunResult]]) -> List[Dict]:
    rows = []
    for protocol, results in curves.items():
        for result in results:
            rows.append(result.as_row())
    return rows
