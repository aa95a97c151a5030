"""CLI for the simulator performance harness.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python benchmarks/perf/run_perf.py                 # full matrix
    python benchmarks/perf/run_perf.py --smoke         # ~30 s CI subset
    python benchmarks/perf/run_perf.py --out BENCH.json --repeats 5

Writes ``BENCH_<date>.json`` under ``benchmarks/perf/results/`` unless
``--out`` is given.  Compare two documents with
``python benchmarks/perf/compare.py CURRENT BASELINE``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from harness import (  # noqa: E402
    OPENLOOP_SMOKE_CASE_NAME,
    default_output_path,
    openloop_cases,
    run_suite,
    standard_cases,
    write_bench,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path, default=None, help="output JSON path")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the CI smoke subset (same case parameters as the full matrix)",
    )
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats per case")
    parser.add_argument(
        "--no-heap", action="store_true", help="skip the tracemalloc peak-heap pass"
    )
    parser.add_argument(
        "--openloop",
        action="store_true",
        help="append the open-loop offered-load sweep (reported, never gated)",
    )
    args = parser.parse_args(argv)

    cases = standard_cases(smoke=args.smoke)
    if args.openloop:
        cases = cases + openloop_cases()
    elif args.smoke:
        # The smoke run reports one open-loop point (never gated) so
        # the CI trajectory records served percentiles under surge.
        cases = cases + [case for case in openloop_cases() if case.name == OPENLOOP_SMOKE_CASE_NAME]

    document = run_suite(
        cases=cases,
        repeats=args.repeats,
        smoke=args.smoke,
        measure_heap=not args.no_heap,
        progress=lambda line: print(line, flush=True),
    )
    out = args.out if args.out is not None else default_output_path()
    write_bench(document, out)

    print(f"\nwrote {out}")
    width = max(len(row["name"]) for row in document["cases"])
    print(f"{'case'.ljust(width)}  {'events/s':>10}  {'sim-s/wall-s':>12}  {'completed':>9}")
    for row in document["cases"]:
        print(
            f"{row['name'].ljust(width)}  {row['events_per_second']:>10,.0f}  "
            f"{row['sim_seconds_per_wall_second']:>12.3f}  {row['completed_requests']:>9}"
        )
    print(f"\nevents/s geomean: {document['summary']['events_per_second_geomean']:,.0f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
