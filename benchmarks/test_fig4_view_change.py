"""Figure 4: performance during a view change (primary failure).

Base configuration (c = m = 1, N = 6 for SeeMoRe and S-UpRight), 0/0
micro-benchmark, checkpoint period 10000, with the primary crashed partway
through the run.  The paper reports:

* every protocol stalls briefly when the primary crashes and recovers to
  its previous throughput once the view change completes;
* the Lion mode recovers fastest; BFT takes roughly twice as long;
* the Peacock mode recovers faster than S-UpRight and BFT thanks to the
  trusted transferer driving its view change.
"""

import pytest

from repro.analysis import format_timeline
from repro.cluster import builder_for
from repro.scenarios import Crash, Scenario, ViewAdvanced, run_scenario
from repro.workload import Workload

PROTOCOLS = ("bft", "s-upright", "seemore-peacock", "seemore-dog", "seemore-lion")
CRASH_AT = 0.3
TOTAL = 1.0
BIN_WIDTH = 0.05

#: The one schedule every protocol runs: the primary of the moment crashes.
VIEW_CHANGE = Scenario(
    name="figure4-primary-crash",
    description="the primary crashes partway through the run; the next view must serve",
    events=(Crash(at=CRASH_AT, target="primary"),),
    expectations=(ViewAdvanced(min_view=1),),
    duration=TOTAL,
    settle=0.0,
)


def run_view_change_timeline(protocol: str):
    deployment = builder_for(protocol)(
        crash_tolerance=1,
        byzantine_tolerance=1,
        num_clients=6,
        workload=Workload.build("0/0"),
        seed=40,
        checkpoint_period=10_000,
        client_timeout=0.1,
    )
    # The engine runs the schedule against the pre-built deployment (the
    # baselines included) under the standard checkers, ledger agreement among them.
    run_scenario(VIEW_CHANGE, deployment=deployment).assert_ok()
    return deployment.metrics.timeline(bin_width=BIN_WIDTH, start=0.0, end=TOTAL)


def outage_duration(bins, crash_at=CRASH_AT, bin_width=BIN_WIDTH):
    """Simulated seconds after the crash during which throughput stays below
    25% of the pre-crash average."""
    before = [rate for start, rate in bins if start < crash_at]
    baseline = sum(before) / len(before) if before else 0.0
    outage = 0.0
    for start, rate in bins:
        if start < crash_at:
            continue
        if rate < 0.25 * baseline:
            outage += bin_width
        else:
            break
    return outage


def recovered_throughput(bins, crash_at=CRASH_AT):
    after = [rate for start, rate in bins if start >= crash_at + 0.3]
    return max(after) if after else 0.0


def baseline_throughput(bins, crash_at=CRASH_AT):
    before = [rate for start, rate in bins if start < crash_at]
    return sum(before) / len(before) if before else 0.0


@pytest.mark.benchmark(group="figure4")
def test_fig4_view_change_timeline(benchmark, report):
    def run_all():
        return {protocol: run_view_change_timeline(protocol) for protocol in PROTOCOLS}

    timelines = benchmark.pedantic(run_all, rounds=1, iterations=1)

    report.section(
        "Figure 4: throughput timeline with the primary crashed at "
        f"t={CRASH_AT}s (c=1, m=1, checkpoint period 10000)"
    )
    summary_rows = []
    for protocol, bins in timelines.items():
        report.line("")
        report.block(format_timeline(protocol, bins))
        summary_rows.append(
            {
                "protocol": protocol,
                "pre_crash_kreqs_per_s": round(baseline_throughput(bins) / 1000, 2),
                "outage_ms": round(outage_duration(bins) * 1000, 1),
                "recovered_kreqs_per_s": round(recovered_throughput(bins) / 1000, 2),
            }
        )
    from repro.analysis import format_results_table

    report.line("")
    report.block(format_results_table(summary_rows))

    # Shape assertions.
    for protocol, bins in timelines.items():
        assert baseline_throughput(bins) > 0, f"{protocol}: no progress before the crash"
        assert recovered_throughput(bins) > 0.4 * baseline_throughput(bins), (
            f"{protocol}: throughput must recover after the view change"
        )
    # SeeMoRe's trusted-collector view changes recover no slower than BFT's.
    assert (
        outage_duration(timelines["seemore-lion"])
        <= outage_duration(timelines["bft"]) + BIN_WIDTH
    )
    assert (
        outage_duration(timelines["seemore-peacock"])
        <= outage_duration(timelines["bft"]) + BIN_WIDTH
    )
