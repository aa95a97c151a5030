"""Ablation: messages exchanged per request — analytic versus measured.

Section 5 derives the number of messages each mode exchanges per committed
request (3N for the Lion mode, N + (3m+1)^2 + (3m+1)N for the Dog mode,
N + 2(3m+1)^2 + (1+S)(3m+1) for the Peacock mode).  This benchmark measures
the actual number of protocol messages the simulated network delivers per
completed request and compares it against those formulas, confirming that
the implementation has the communication pattern the paper claims.
"""

import pytest

from repro.analysis import format_results_table, messages_per_request
from repro.cluster import builder_for, run_deployment
from repro.workload import Workload

from benchmarks.conftest import sweep

PROTOCOLS = ("seemore-lion", "seemore-dog", "seemore-peacock", "cft", "bft", "s-upright")


def measure_messages(protocol: str):
    deployment = builder_for(protocol)(
        crash_tolerance=1,
        byzantine_tolerance=1,
        num_clients=4,
        workload=Workload.build("0/0"),
        seed=60,
        checkpoint_period=10_000,  # keep checkpoint traffic out of the count
    )
    result = run_deployment(deployment, duration=0.3, warmup=0.1)
    stats = deployment.network.stats()
    protocol_messages = stats["messages_delivered"]
    # Client traffic (requests in, replies out) is not part of the paper's
    # per-request message count; subtract it.
    client_message_types = ("Request", "Reply")
    client_messages = sum(stats["by_type"].get(kind, 0) for kind in client_message_types)
    replica_messages = protocol_messages - client_messages
    per_request = replica_messages / max(1, result.completed)
    return per_request, result.completed


@pytest.mark.benchmark(group="ablation")
def test_ablation_messages_per_request(benchmark, report):
    def run_all():
        return dict(zip(PROTOCOLS, sweep(measure_messages, [(p,) for p in PROTOCOLS])))

    measured = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for protocol, (per_request, completed) in measured.items():
        analytic = messages_per_request(protocol, 1, 1)
        rows.append(
            {
                "protocol": protocol,
                "analytic_msgs_per_req": analytic,
                "measured_msgs_per_req": round(per_request, 1),
                "requests_completed": completed,
            }
        )
    report.section("Ablation: protocol messages per committed request (c=1, m=1)")
    report.block(format_results_table(rows))

    by_protocol = {row["protocol"]: row for row in rows}
    # The measured counts track the analytic formulas (within 40%: batching
    # of informs/commits around checkpoints and client retransmissions add
    # slack, but the ordering must hold exactly).
    for protocol in PROTOCOLS:
        analytic = by_protocol[protocol]["analytic_msgs_per_req"]
        measured_value = by_protocol[protocol]["measured_msgs_per_req"]
        assert measured_value <= analytic * 1.4, f"{protocol} sends far more messages than derived"

    # Orderings from Table 1: Lion is the leanest SeeMoRe mode; BFT is the
    # most expensive protocol overall.
    assert (
        by_protocol["seemore-lion"]["measured_msgs_per_req"]
        < by_protocol["seemore-dog"]["measured_msgs_per_req"]
    )
    assert (
        by_protocol["seemore-dog"]["measured_msgs_per_req"]
        <= by_protocol["seemore-peacock"]["measured_msgs_per_req"] * 1.3
    )
    assert (
        by_protocol["seemore-peacock"]["measured_msgs_per_req"]
        < by_protocol["bft"]["measured_msgs_per_req"]
    )
    assert (
        by_protocol["cft"]["measured_msgs_per_req"]
        <= by_protocol["seemore-lion"]["measured_msgs_per_req"]
    )
