"""Compare two ``BENCH_*.json`` documents; fail on a regression or a changed count.

Usage::

    python benchmarks/perf/compare.py CURRENT.json BASELINE.json \
        [--max-regression 0.25] [--no-calibration]

Cases are matched by name; when the two documents do not carry the same
case set (e.g. the candidate added sharded cases the committed baseline
predates), the difference is printed as a warning and the comparison —
and the regression gate — covers only the intersection.  The gate never
fails because of cases the baseline lacks.  A case whose events/sec is
zero or missing on either side cannot produce a meaningful ratio
(``0/x`` would zero the geomean, ``x/0`` would make it infinite); such
cases are excluded from the geometric mean with a warning instead of
poisoning the gate in either direction.  When both documents carry a
``host.calibration_ops_per_second`` score (a fixed sha256 + heap-churn
workload measured by the harness on the machine that produced the
document), each side's events/sec is divided by its own score first, so a
baseline recorded on a fast workstation remains comparable on a slower CI
runner and vice versa.  Without calibration on both sides the raw numbers
are compared (same-machine trajectories).

The check fails (exit code 1) when the geometric-mean ratio over the
shared cases drops by more than ``--max-regression`` (default 25%); the
geometric mean — rather than any single case — keeps the gate robust
against per-case wall-clock noise, while a real hot-path regression moves
every case.  Per-case ratios are printed either way so a localized
regression is still visible in the log.

The check also fails (exit code 1) when a shared case's
``completed_requests`` or ``events_processed`` differs from the baseline.
The simulator is deterministic, so those counts are not noise: a change in
either is a change in what the protocol did, and each differing case is
printed.  A count missing on either side is not compared.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
from typing import Iterator, Optional, Tuple

#: Counts a shared case must reproduce exactly (the determinism proof).
DETERMINISTIC_COUNTS = ("completed_requests", "events_processed")


def load(path: pathlib.Path) -> Tuple[dict, Optional[float]]:
    document = json.loads(pathlib.Path(path).read_text())
    # Rows marked ``gated: false`` (the open-loop sweep) are reported-only;
    # rows predating the field are gated.
    cases = {case["name"]: case for case in document["cases"] if case.get("gated", True)}
    skipped = len(document["cases"]) - len(cases)
    if skipped:
        print(f"note: {skipped} ungated case(s) in {path} excluded from the gate")
    calibration = document.get("host", {}).get("calibration_ops_per_second")
    return cases, calibration


def count_differences(current: dict, baseline: dict, shared) -> Iterator[str]:
    """Yield one line per shared case and count that differs from the baseline."""
    for name in shared:
        for field in DETERMINISTIC_COUNTS:
            now, then = current[name].get(field), baseline[name].get(field)
            if now is not None and then is not None and now != then:
                yield f"{name}: {field} {then} -> {now}"


def compare(
    current_path: pathlib.Path,
    baseline_path: pathlib.Path,
    max_regression: float,
    use_calibration: bool = True,
) -> int:
    current, current_cal = load(current_path)
    baseline, baseline_cal = load(baseline_path)
    shared = sorted(set(current) & set(baseline))
    if not shared:
        print("error: the two documents share no case names", file=sys.stderr)
        return 2
    only_current = sorted(set(current) - set(baseline))
    only_baseline = sorted(set(baseline) - set(current))
    if only_current:
        print(
            f"warning: {len(only_current)} case(s) missing from the baseline "
            f"(not gated): {', '.join(only_current)}"
        )
    if only_baseline:
        print(
            f"warning: {len(only_baseline)} baseline case(s) missing from the "
            f"current run (ignored): {', '.join(only_baseline)}"
        )
    if only_current or only_baseline:
        print(f"comparing the {len(shared)} shared case(s)\n")

    normalize = use_calibration and current_cal and baseline_cal
    if normalize:
        print(
            f"calibration: current {current_cal:,.0f} ops/s, "
            f"baseline {baseline_cal:,.0f} ops/s — comparing normalized events/sec"
        )
        current_scale, baseline_scale = 1.0 / current_cal, 1.0 / baseline_cal
    else:
        print("calibration scores missing on one side — comparing raw events/sec")
        current_scale = baseline_scale = 1.0

    ratios = []
    degenerate = []
    width = max(len(name) for name in shared)
    print(f"{'case'.ljust(width)}  {'current':>12}  {'baseline':>12}  {'ratio':>7}")
    for name in shared:
        now = current[name].get("events_per_second") or 0.0
        then = baseline[name].get("events_per_second") or 0.0
        if now > 0 and then > 0:
            ratio = (now * current_scale) / (then * baseline_scale)
            ratios.append(ratio)
            shown = f"{ratio:>7.2f}"
        else:
            # A zero/missing side has no meaningful ratio: 0/x would drag
            # the geomean to zero, x/0 would push it to infinity.  Either
            # way one broken case must not decide the gate silently.
            degenerate.append(name)
            shown = f"{'n/a':>7}"
        print(f"{name.ljust(width)}  {now:>12,.0f}  {then:>12,.0f}  {shown}")

    differing = list(count_differences(current, baseline, shared))
    for line in differing:
        print(f"count differs: {line}")

    if degenerate:
        print(
            f"warning: {len(degenerate)} case(s) with zero/missing events/sec "
            f"excluded from the geomean: {', '.join(degenerate)}"
        )
    if not ratios:
        print(
            "error: no shared case has a nonzero events/sec on both sides",
            file=sys.stderr,
        )
        return 2

    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    floor = 1.0 - max_regression
    print(f"\ngeomean ratio: {geomean:.3f}  (failure threshold: < {floor:.2f})")
    if geomean < floor:
        print(
            f"FAIL: events/sec regressed by more than {max_regression:.0%} "
            f"({geomean:.3f} of baseline)",
            file=sys.stderr,
        )
        return 1
    if differing:
        print(
            f"FAIL: {len(differing)} committed / event count(s) differ from the "
            "baseline; a deterministic run must reproduce them exactly",
            file=sys.stderr,
        )
        return 1
    print("OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", type=pathlib.Path)
    parser.add_argument("baseline", type=pathlib.Path)
    parser.add_argument("--max-regression", type=float, default=0.25)
    parser.add_argument(
        "--no-calibration",
        action="store_true",
        help="compare raw events/sec even when calibration scores are present",
    )
    args = parser.parse_args(argv)
    return compare(
        args.current,
        args.baseline,
        args.max_regression,
        use_calibration=not args.no_calibration,
    )


if __name__ == "__main__":
    raise SystemExit(main())
