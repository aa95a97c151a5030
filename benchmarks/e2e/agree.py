"""Do two result documents of ``run.py`` agree?

    python -m benchmarks.e2e.agree A.json B.json

One row per (workload, end-to-end metric): both medians, both inter-quartile
ranges as a share of their median, how far B's median is from A's, the bound
``BENCHMARK.json`` fixes for the metric, and a verdict:

* ``unresolved`` — a side's own run-to-run spread is wider than the bound, so
  the pair cannot tell a difference of that size from noise;
* ``differ`` — the medians are further apart than the bound, or a simulated
  latency (which repeats exactly for a seed) is not bit-identical;
* ``agree`` — otherwise.

Exits non-zero on any ``differ`` and when B failed a larger share of its
requests than A.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
from typing import Any, Dict, List, Tuple

BENCHMARK_JSON = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: Read on the simulated clock on ``sim-*`` workloads, so exact for a seed.
EXACT_ON_SIM = ("latency_p50_ms",)


def spread(values: List[float]) -> float:
    """Inter-quartile range as a share of the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / abs(statistics.median(values))


def failed_share(runs: List[Dict[str, Any]]) -> float:
    return sum(run["failed"] for run in runs) / max(1, sum(run["attempted"] for run in runs))


def compare(a: Dict[str, Any], b: Dict[str, Any], bounds: Dict[str, float]) -> Tuple[List[str], bool]:
    rows = [
        f"{'workload':20s} {'metric':16s} {'median A':>12s} {'median B':>12s} "
        f"{'iqr A':>7s} {'iqr B':>7s} {'B vs A':>8s} {'bound':>6s}  verdict"
    ]
    ok = True
    for workload, entry_a in a["workloads"].items():
        runs_a, runs_b = entry_a["runs"], b["workloads"][workload]["runs"]
        by_seed_b = {run["seed"]: run for run in runs_b}
        for metric, bound in bounds.items():
            values_a = [run["metrics"][metric]["value"] for run in runs_a]
            values_b = [run["metrics"][metric]["value"] for run in runs_b]
            median_a, median_b = statistics.median(values_a), statistics.median(values_b)
            relative = (median_b - median_a) / abs(median_a)
            verdict = "agree"
            if max(spread(values_a), spread(values_b)) > bound:
                verdict = "unresolved"
            elif abs(relative) > bound:
                verdict = "differ"
            if workload.startswith("sim-") and metric in EXACT_ON_SIM:
                if any(
                    run["seed"] in by_seed_b
                    and by_seed_b[run["seed"]]["metrics"][metric]["value"]
                    != run["metrics"][metric]["value"]
                    for run in runs_a
                ):
                    verdict = "differ"
            ok = ok and verdict != "differ"
            rows.append(
                f"{workload:20s} {metric:16s} {median_a:12.6g} {median_b:12.6g} "
                f"{spread(values_a):7.1%} {spread(values_b):7.1%} {relative:+8.1%} "
                f"{bound:6.0%}  {verdict}"
            )
        if failed_share(runs_b) > failed_share(runs_a):
            ok = False
            rows.append(
                f"{workload:20s} failed share rose from {failed_share(runs_a):.4%} "
                f"to {failed_share(runs_b):.4%}"
            )
    return rows, ok


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(pathlib.Path(path).read_text()) for path in argv)
    bounds = {
        metric["name"]: metric["bound"]
        for metric in json.loads(BENCHMARK_JSON.read_text())["end_to_end"]
    }
    rows, ok = compare(a, b, bounds)
    print("\n".join(rows))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
