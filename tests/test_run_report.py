"""One RunResult behind every runner, one flat row per run."""

import dataclasses

import pytest

from repro.analysis import format_run_report
from repro.cluster.builders import build_seemore
from repro.cluster.runner import RunResult, run_deployment, run_sharded_deployment
from repro.runtime.proc import ProcResult
from repro.workload.metrics import LatencySummary, ShardLoadSummary
from repro.workload.slo import SloEvaluation, SloSpec


def _latency():
    return LatencySummary.of([0.01, 0.02, 0.03])


def _run_result(**overrides):
    kwargs = dict(
        protocol="seemore-lion",
        clients=2,
        duration=1.0,
        completed=100,
        throughput=100.0,
        latency=_latency(),
        client_timeouts=0,
    )
    kwargs.update(overrides)
    return RunResult(**kwargs)


def _sharded_result(**overrides):
    return _run_result(
        protocol="seemore-sharded-2x",
        per_shard=(ShardLoadSummary(shard=0, completed=60, throughput=60.0, latency=_latency()),),
        transactions={"started": 5, "committed": 4, "aborted": 1},
        **overrides,
    )


def _open_loop_result(**overrides):
    return _run_result(
        completed=380,
        offered=500,
        served=300,
        dropped=100,
        shed=100,
        busy_rejects=250,
        **overrides,
    )


def _proc_result(**overrides):
    kwargs = dict(
        met=True,
        wall_seconds=1.5,
        harvests={"client": {"completed": 42}},
        stats={"w0": {"nodes": {"r0": {"busy_time": 0.5}}}},
        deaths=[],
        exitcodes={"w0": 0},
        errors=[],
    )
    kwargs.update(overrides)
    return ProcResult(**kwargs)


ALL_REPORTS = {
    "run": _run_result,
    "sharded": _sharded_result,
    "openloop": _open_loop_result,
    "proc": _proc_result,
}


class TestOneRow:
    @pytest.mark.parametrize("kind", sorted(ALL_REPORTS))
    def test_as_row_is_flat(self, kind):
        row = ALL_REPORTS[kind]().as_row()
        assert isinstance(row, dict) and row
        assert all(
            value is None or isinstance(value, (str, int, float, bool))
            for value in row.values()
        )

    @pytest.mark.parametrize("kind", sorted(ALL_REPORTS))
    def test_every_row_counts_completions_and_violations(self, kind):
        row = ALL_REPORTS[kind]().as_row()
        assert row["violations"] == 0
        assert row["completed"] == {"run": 100, "sharded": 100, "openloop": 380, "proc": 42}[kind]

    def test_plain_row_has_no_section_columns(self):
        row = _run_result().as_row()
        assert not {"transactions_committed", "offered", "slo_holds"} & set(row)

    def test_sharded_section_adds_the_2pc_counters(self):
        row = _sharded_result().as_row()
        assert row["transactions_started"] == 5
        assert row["transactions_committed"] == 4
        assert row["transactions_aborted"] == 1

    def test_open_loop_section_separates_offered_from_served(self):
        result = _open_loop_result()
        row = result.as_row()
        assert (row["offered"], row["served"], row["dropped"], row["shed"]) == (500, 300, 100, 100)
        assert row["busy_rejects"] == 250
        assert row["offered_rate_reqs_per_s"] == 500.0
        # Whole-run completions and measured-window completions are two
        # numbers with two names.
        assert row["completed"] == 380 and result.served == 300

    def test_a_proc_row_totals_deaths_and_errors(self):
        # A RunResult exists only for a run that upheld safety (the runner
        # raises otherwise), so its row can count a violated SLO and no more.
        assert _proc_result(deaths=["w1"], errors=["boom"]).as_row()["violations"] == 2

    def test_a_violated_slo_counts_as_a_violation(self):
        spec = SloSpec(bound=0.05)
        bad = SloEvaluation(spec=spec, bins=4, violating_bins=2, worst=0.2)
        result = _open_loop_result()
        assert result.slo_holds is None and result.as_row()["violations"] == 0
        judged = dataclasses.replace(result, slo=bad)
        assert judged.slo_holds is False
        row = judged.as_row()
        assert row["violations"] == 1
        assert row["slo_holds"] is False and row["slo_violating_bins"] == 2


class TestFormattingRuns:
    def test_formats_mixed_reports_with_the_union_of_columns(self):
        text = format_run_report(
            [_run_result(), _sharded_result(), _open_loop_result(), _proc_result()]
        )
        header = text.splitlines()[1]
        for column in ("protocol", "transactions_committed", "shed", "wall_seconds"):
            assert column in header
        assert "proc" in text
        assert "VIOLATIONS" not in text

    def test_flags_violations(self):
        violated = SloEvaluation(spec=SloSpec(bound=0.05), bins=4, violating_bins=2, worst=0.2)
        text = format_run_report([_open_loop_result(slo=violated), _proc_result(deaths=["w0"])])
        assert "VIOLATIONS: seemore-lion reported 1 violation(s)" in text
        assert "VIOLATIONS: proc reported 1 violation(s)" in text

    def test_empty(self):
        assert "(no results)" in format_run_report([])


class TestLiveRunPopulatesResult:
    @pytest.mark.integration
    def test_run_deployment_fills_the_result(self):
        deployment = build_seemore(num_clients=2, seed=3)
        result = run_deployment(deployment, duration=0.3, warmup=0.1)
        assert isinstance(result, RunResult)
        assert result.metrics_collector is deployment.metrics
        assert result.node_summaries, "node summaries should be captured"
        assert any("busy_rejects_sent" in summary for summary in result.node_summaries.values())
        assert result.per_shard is None and result.transactions is None
        assert result.offered is None and result.slo is None

    def test_the_sharded_spelling_is_the_same_function(self):
        # benchmarks/e2e/adapters.py imports run_sharded_deployment.
        assert run_sharded_deployment is run_deployment
