"""Benchmark: request batching and pipelining across the three modes.

The paper's throughput numbers (Figures 2-3) rest on the primary amortizing
one agreement round over many client requests.  This benchmark quantifies
that lever in the reproduction: each mode runs the 0/0 micro-benchmark with
the same offered load (12 pipelined clients, window 8) under three batch
policies — unbatched, ``max_batch=16``, and ``max_batch=64`` (both with a
1 ms linger) — and reports throughput, per-request latency, and the batch
fill actually achieved.

Shape assertions, as everywhere in this harness: batching at size 16+ must
buy at least 5x the unbatched throughput in every mode, and the measured
mean batch fill must be close to the configured cap (the load is sized so
batches can fill).
"""

import pytest

from repro.analysis import format_results_table
from repro.cluster import build_seemore, run_deployment
from repro.core import BatchPolicy, Mode
from repro.workload import Workload

from benchmarks.conftest import sweep

# f=3 (c=1, m=2): the mid-size network of Figure 2, where per-slot agreement
# cost is pronounced enough that batching's amortization shows cleanly.
CRASH_TOLERANCE = 1
BYZANTINE_TOLERANCE = 2
NUM_CLIENTS = 12
CLIENT_WINDOW = 8
DURATION = 0.2
WARMUP = 0.06

POLICIES = [
    ("unbatched", BatchPolicy()),
    ("batch-16", BatchPolicy(max_batch=16, linger=0.001)),
    ("batch-64", BatchPolicy(max_batch=64, linger=0.001)),
]


def measure_policy(mode, label, policy):
    deployment = build_seemore(
        crash_tolerance=CRASH_TOLERANCE,
        byzantine_tolerance=BYZANTINE_TOLERANCE,
        mode=mode,
        workload=Workload.build("0/0").with_client_window(CLIENT_WINDOW),
        num_clients=NUM_CLIENTS,
        batch_policy=policy,
        seed=7,
    )
    result = run_deployment(deployment, duration=DURATION, warmup=WARMUP)
    deployment.collect_batch_sizes()
    batch_stats = deployment.metrics.batch_summary()
    return {
        "mode": mode.name,
        "policy": label,
        "max_batch": policy.max_batch,
        "throughput_kreqs_per_s": round(result.throughput / 1000, 3),
        "mean_latency_ms": round(result.latency.mean * 1000, 3),
        "mean_batch_fill": round(batch_stats.mean, 1),
        "completed": result.completed,
    }


def run_batching_curves():
    modes = (Mode.LION, Mode.DOG, Mode.PEACOCK)
    rows = iter(sweep(measure_policy, [(mode, *policy) for mode in modes for policy in POLICIES]))
    return {mode.name: [next(rows) for _ in POLICIES] for mode in modes}


@pytest.mark.benchmark(group="batching")
def test_batching_throughput_speedup(benchmark, report):
    results = benchmark.pedantic(run_batching_curves, rounds=1, iterations=1)

    report.section(
        "Batching & pipelining: 0/0 micro-benchmark, f=3 (c=1, m=2), "
        f"{NUM_CLIENTS} clients x window {CLIENT_WINDOW}"
    )
    all_rows = [row for rows in results.values() for row in rows]
    report.block(format_results_table(all_rows))
    for mode_name, rows in results.items():
        base = rows[0]["throughput_kreqs_per_s"]
        speedups = {
            row["policy"]: round(row["throughput_kreqs_per_s"] / base, 2)
            for row in rows[1:]
        }
        report.line(f"{mode_name}: speedup over unbatched {speedups}")

    for mode_name, rows in results.items():
        unbatched, batch16, batch64 = rows
        # Headline claim: batching at size 16+ amortizes agreement cost into
        # a >=5x throughput win in every mode.
        assert batch16["throughput_kreqs_per_s"] >= 5.0 * unbatched["throughput_kreqs_per_s"], (
            f"{mode_name}: batch-16 speedup below 5x"
        )
        assert batch64["throughput_kreqs_per_s"] >= 5.0 * unbatched["throughput_kreqs_per_s"], (
            f"{mode_name}: batch-64 speedup below 5x"
        )
        # The offered load (96 outstanding requests) must actually fill
        # batches: mean fill close to the cap for batch-16.
        assert batch16["mean_batch_fill"] >= 12.0, f"{mode_name}: batches did not fill"
        # Bigger batches never hurt throughput in this regime.
        assert batch64["throughput_kreqs_per_s"] >= 0.9 * batch16["throughput_kreqs_per_s"]
        # Batching trades per-request latency for throughput only modestly:
        # the mean stays below the client retransmission timeout.
        assert batch64["mean_latency_ms"] < 100.0
