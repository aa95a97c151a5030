#!/usr/bin/env python3
"""Quickstart: run SeeMoRe in the Lion mode and measure it.

This is the smallest end-to-end use of the library:

1. pick the fault thresholds (c crash failures in the private cloud,
   m Byzantine failures in the public cloud);
2. build a simulated deployment (replicas, network, closed-loop clients);
3. run it for a stretch of simulated time;
4. read off throughput/latency and check that all correct replicas agree.

Run with:  python examples/quickstart.py
"""

from repro import Mode, build_seemore, run_deployment
from repro.analysis import comparison_table, format_results_table


def main() -> None:
    print("=== SeeMoRe quickstart ===\n")

    # The paper's base configuration: c = 1 crash failure tolerated in the
    # private cloud, m = 1 Byzantine failure tolerated in the public cloud,
    # which yields N = 3m + 2c + 1 = 6 replicas (2 private + 4 public).
    deployment = build_seemore(
        crash_tolerance=1,
        byzantine_tolerance=1,
        mode=Mode.LION,
        num_clients=8,
        seed=42,
    )
    config = deployment.group().config
    print(f"replica group: {config.network_size} replicas "
          f"({config.private_size} private, {config.public_size} public)")
    print(f"mode: {Mode.LION.name} — {Mode.LION.describe()}")
    print(f"quorum size: {config.quorum_size(Mode.LION)}\n")

    result = run_deployment(deployment, duration=1.0, warmup=0.2)

    print(f"completed requests : {result.completed}")
    print(f"throughput         : {result.throughput_kreqs:.2f} Kreq/s")
    print(f"mean latency       : {result.mean_latency_ms:.3f} ms")
    print(f"p99 latency        : {result.latency.p99 * 1000:.3f} ms")
    print(f"client timeouts    : {result.client_timeouts}")

    # Safety: every correct replica committed the same requests in the same
    # order (run_deployment already asserts this; shown here explicitly).
    deployment.assert_safe()
    print("\nsafety check       : all correct replicas agree on the committed order")

    print("\nProtocol comparison for this configuration (Table 1 of the paper):")
    print(format_results_table(comparison_table(crash_tolerance=1, byzantine_tolerance=1)))


if __name__ == "__main__":
    main()
