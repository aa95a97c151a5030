"""One command for the whole benchmark.

Driver form, one workload per invocation (the contract of ``BENCHMARK.json``)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name with its unit and, as the last line of standard
output, one JSON object ``{correct, attempted, failed, metrics}``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with tracing off;
with ``--trace 1`` they are the per-layer ones of traced repeats.

Without ``--workload`` every workload runs in a fresh subprocess and one JSON
document is written to ``--out`` for ``agree.py``::

    PYTHONPATH=src python -m benchmarks.e2e.run [--runs N] [--trace] [--quick] [--out FILE]

The exit code is non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import subprocess
import sys
import time
import tracemalloc
from typing import Any, Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent

if __package__ in (None, ""):
    # Script form: make ``benchmarks.e2e`` importable and keep this directory
    # off the path, where ``trace.py`` would shadow the standard library's.
    sys.path[0] = str(ROOT)
if (ROOT / "src" / "repro").is_dir() and str(ROOT / "src") not in sys.path:
    sys.path.insert(1, str(ROOT / "src"))

from benchmarks.e2e import adapters  # noqa: E402
from benchmarks.e2e import metrics as metrics_module  # noqa: E402
from benchmarks.e2e.trace import write_jsonl  # noqa: E402
from benchmarks.e2e.workloads import BY_NAME, WORKLOADS, WorkloadDef  # noqa: E402

BENCHMARK_JSON = ROOT / "BENCHMARK.json"
RESULTS_DIR = HERE / "results"
DEFAULT_SEED = 3
#: Quick repeats run before anything is measured: they warm the interpreter
#: and each contributes one sample of set-up time, as every measured repeat does.
WARMUP_REPEATS = 2


def host_block() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "load_1m": os.getloadavg()[0],
    }


def warn_if_loaded(host: Dict[str, Any]) -> None:
    if host["load_1m"] > host["nproc"] / 2:
        print(
            f"warning: 1-minute load average {host['load_1m']:.2f} exceeds "
            f"nproc/2 = {host['nproc'] / 2:.1f}; wall-clock metrics will be noisy"
        )


def run_seconds_default() -> int:
    return json.loads(BENCHMARK_JSON.read_text())["run_seconds"]


class Run:
    """The repeats of one workload inside one time budget."""

    def __init__(self, workload: WorkloadDef, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = time.perf_counter() + seconds
        self.violations: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.repeats_run = 0

    def repeat(self, size: float, trace: bool = False) -> Dict[str, Any]:
        """One checked repeat; garbage of the previous one is collected first."""
        gc.collect()
        obs = adapters.run_once(
            self.workload, size, self.seed, trace=trace, repeat=self.repeats_run
        )
        self.repeats_run += 1
        self.violations.extend(obs["violations"])
        self.attempted += obs["attempted"]
        self.failed += obs["failed"]
        return obs

    def fits(self, durations: List[float]) -> bool:
        """Whether a repeat as long as the mean of ``durations`` ends in budget."""
        return time.perf_counter() + sum(durations) / len(durations) <= self.deadline

    def check_deterministic(self, repeats: List[Dict[str, Any]]) -> None:
        """Same seed, same simulator: every repeat must commit the same thing."""
        if not self.workload.backend.startswith("sim"):
            return
        signatures = {
            (obs["completed"], obs["counters"]["sim_events"], sum(obs["latencies_ms"]))
            for obs in repeats
        }
        if len(signatures) > 1:
            self.violations.append(f"simulator repeats of one seed differ: {sorted(signatures)}")

    # -- end to end (tracing off) --------------------------------------------

    def end_to_end(self, quick: bool) -> Dict[str, Any]:
        workload = self.workload
        # With --quick the single small repeat is the measurement.
        warmups = [
            self.repeat(workload.quick) for _ in range(1 if quick else WARMUP_REPEATS)
        ]
        repeats, durations = [], []
        while not quick and (not repeats or self.fits(durations)):
            started = time.perf_counter()
            repeats.append(self.repeat(workload.full))
            durations.append(time.perf_counter() - started)
        measured = repeats or warmups
        self.check_deterministic(measured)
        print(
            f"{workload.name}: seed {self.seed}, {len(measured)} repeat(s) of size "
            f"{workload.quick if quick else workload.full:g}, "
            f"{min(len(obs['latencies_ms']) for obs in measured)} latency samples per repeat "
            f"after warm-up, {len(warmups) + len(repeats)} set-ups; host speed by repeat "
            + " ".join(f"{obs['host_speed']:.2f}" for obs in measured)
        )
        # With --quick the warm-up is the measured repeat; do not count it twice.
        return metrics_module.end_to_end(
            measured, warmups if repeats else [], adapters.peak_rss_mb()
        )

    # -- per layer (traced repeats) ------------------------------------------

    def per_layer(self, quick: bool) -> Dict[str, Any]:
        workload = self.workload
        size = workload.quick if quick else workload.full
        if not quick:
            self.repeat(workload.quick)  # warm the interpreter
        peak_heap_mb = 0.0
        if workload.backend.startswith("sim"):
            # tracemalloc slows the run several-fold, so the heap repeat is
            # neither timed nor traced.
            tracemalloc.start()
            self.repeat(size)
            peak_heap_mb = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
        per_repeat, durations, last = [], [], None
        while not per_repeat or (not quick and self.fits(durations)):
            started = time.perf_counter()
            untraced = self.repeat(size)
            last = self.repeat(size, trace=True)
            durations.append(time.perf_counter() - started)
            per_repeat.append(metrics_module.per_layer_of(last, untraced, peak_heap_mb))
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"trace-{workload.name}.jsonl"
        written = write_jsonl([trace["spans"] for trace in last["traces"]], path)
        print(
            f"{workload.name}: seed {self.seed}, {len(per_repeat)} traced repeat(s) of size "
            f"{size:g}; {written} spans of the last one written to {path.relative_to(ROOT)}"
        )
        result = metrics_module.per_layer(per_repeat)
        late = result["workload.gen_late_p99_ms"]["value"]
        p50 = metrics_module.percentile(last["latencies_ms"], 0.5)
        if workload.open_loop_rate and late > 0.1 * p50:
            print(
                f"warning: the arrival generator ran {late:.2f} ms late at p99, more than "
                f"10% of the median latency {p50:.2f} ms; this run's latencies are suspect"
            )
        return result


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> Dict[str, Any]:
    run = Run(BY_NAME[name], seed, seconds)
    values = run.per_layer(quick) if trace else run.end_to_end(quick)
    for metric, entry in values.items():
        print(f"  {metric:34s} {entry['value']:>16.6g} {entry['unit']}")
    for violation in run.violations:
        print(f"  VIOLATION: {violation}")
    return {
        "correct": not run.violations,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": values,
    }


# -- all workloads, each in a fresh subprocess ---------------------------------


def _child(name: str, seed: int, seconds: float, trace: int, quick: bool) -> Dict[str, Any]:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--quick"] if quick else [])
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    print("\n".join(lines[:-1]))
    if done.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    if done.stderr.strip():
        # Unretrieved asyncio exceptions and dying workers talk on stderr.
        print(done.stderr, file=sys.stderr)
        result["correct"] = False
        result["stderr"] = done.stderr
    return result


def run_all(args: argparse.Namespace) -> int:
    host = host_block()
    warn_if_loaded(host)
    document: Dict[str, Any] = {
        "schema": 1,
        "host": host,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "quick": args.quick,
        "workloads": {},
    }
    correct = True
    for workload in WORKLOADS:
        entry = document["workloads"][workload.name] = {"runs": [], "traced": []}
        for index in range(args.runs):
            entry["runs"].append(
                _child(workload.name, args.seed + index, args.seconds, 0, args.quick)
            )
        if args.trace:
            entry["traced"].append(_child(workload.name, args.seed, args.seconds, 1, args.quick))
        correct = correct and all(run["correct"] for run in entry["runs"] + entry["traced"])
    out = pathlib.Path(args.out) if args.out else RESULTS_DIR / "e2e.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {out}; every output check {'passed' if correct else 'FAILED'}")
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME), help="run only this workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="time budget of one run")
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="1: traced repeats and per-layer metrics (with no --workload: add a traced run)",
    )
    parser.add_argument("--quick", action="store_true", help="one small repeat per run")
    parser.add_argument("--runs", type=int, default=1, help="untraced runs per workload, seeds seed..")
    parser.add_argument("--out", help="where the all-workloads JSON document goes")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = run_seconds_default()
    if args.workload is None:
        return run_all(args)
    warn_if_loaded(host_block())
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
