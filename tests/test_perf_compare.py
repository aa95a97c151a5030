"""Regression tests for the perf-baseline comparison gate.

``benchmarks/perf/compare.py`` decides whether a perf run regressed, so its
own edge cases (mismatched case sets, zero events/sec on one side, missing
calibration) must be pinned: a gate that crashes or silently reports an
infinite/zero geomean is worse than no gate.  It also holds every shared case
to the committed and event counts of the baseline (the determinism proof).
"""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks" / "perf"))

import compare  # noqa: E402


def _document(cases, calibration=None):
    document = {"schema_version": 1, "cases": [
        {"name": name, "events_per_second": value} for name, value in cases.items()
    ]}
    if calibration is not None:
        document["host"] = {"calibration_ops_per_second": calibration}
    return document


def _write(tmp_path, filename, document):
    path = tmp_path / filename
    path.write_text(json.dumps(document))
    return path


def _run(tmp_path, current, baseline, max_regression=0.25, **kwargs):
    current_path = _write(tmp_path, "current.json", current)
    baseline_path = _write(tmp_path, "baseline.json", baseline)
    return compare.compare(current_path, baseline_path, max_regression, **kwargs)


class TestIntersection:
    def test_identical_documents_pass(self, tmp_path, capsys):
        document = _document({"a": 100.0, "b": 200.0})
        assert _run(tmp_path, document, document) == 0
        assert "geomean ratio: 1.000" in capsys.readouterr().out

    def test_extra_current_cases_do_not_move_the_geomean(self, tmp_path, capsys):
        """Cases absent from the baseline are warned about, never gated on."""
        baseline = _document({"a": 100.0, "b": 100.0})
        current = _document({"a": 100.0, "b": 100.0, "new-case": 10_000_000.0})
        assert _run(tmp_path, current, baseline) == 0
        out = capsys.readouterr().out
        assert "missing from the baseline" in out
        assert "new-case" in out
        assert "geomean ratio: 1.000" in out

    def test_extra_baseline_cases_are_ignored(self, tmp_path, capsys):
        baseline = _document({"a": 100.0, "retired-case": 1.0})
        current = _document({"a": 100.0})
        assert _run(tmp_path, current, baseline) == 0
        out = capsys.readouterr().out
        assert "retired-case" in out
        assert "geomean ratio: 1.000" in out

    def test_disjoint_case_sets_error(self, tmp_path):
        assert _run(tmp_path, _document({"a": 1.0}), _document({"b": 1.0})) == 2


class TestDegenerateValues:
    def test_zero_baseline_case_does_not_inflate_the_geomean(self, tmp_path, capsys):
        """A then==0 case used to contribute ratio=inf, masking regressions."""
        baseline = _document({"broken": 0.0, "a": 100.0, "b": 100.0})
        current = _document({"broken": 50.0, "a": 10.0, "b": 10.0})  # 10x regression
        assert _run(tmp_path, current, baseline) == 1
        out = capsys.readouterr().out
        assert "excluded from the geomean: broken" in out
        assert "inf" not in out

    def test_zero_current_case_does_not_crash_or_zero_the_geomean(self, tmp_path, capsys):
        baseline = _document({"broken": 100.0, "a": 100.0})
        current = _document({"broken": 0.0, "a": 100.0})
        assert _run(tmp_path, current, baseline) == 0
        out = capsys.readouterr().out
        assert "excluded from the geomean: broken" in out
        assert "geomean ratio: 1.000" in out

    def test_all_cases_degenerate_is_an_error(self, tmp_path):
        assert _run(tmp_path, _document({"a": 0.0}), _document({"a": 100.0})) == 2

    def test_missing_events_per_second_is_treated_as_degenerate(self, tmp_path):
        baseline = _document({"a": 100.0, "b": 100.0})
        current = _document({"a": 100.0, "b": 100.0})
        current["cases"][1] = {"name": "b"}  # no events_per_second key
        assert _run(tmp_path, current, baseline) == 0


class TestGate:
    def test_regression_beyond_threshold_fails(self, tmp_path):
        baseline = _document({"a": 100.0, "b": 100.0})
        current = _document({"a": 60.0, "b": 60.0})
        assert _run(tmp_path, current, baseline, max_regression=0.25) == 1

    def test_regression_within_threshold_passes(self, tmp_path):
        baseline = _document({"a": 100.0, "b": 100.0})
        current = _document({"a": 90.0, "b": 90.0})
        assert _run(tmp_path, current, baseline, max_regression=0.25) == 0

    def test_geomean_is_robust_to_one_noisy_case(self, tmp_path):
        """One slow case inside an otherwise-flat run stays under the gate."""
        baseline = _document({f"c{i}": 100.0 for i in range(10)})
        current_cases = {f"c{i}": 100.0 for i in range(10)}
        current_cases["c0"] = 40.0
        geomean = math.exp(sum(math.log(v / 100.0) for v in current_cases.values()) / 10)
        assert geomean > 0.75
        assert _run(tmp_path, _document(current_cases), baseline) == 0


class TestCalibration:
    def test_calibration_normalizes_machine_speed(self, tmp_path, capsys):
        """Half-speed machine at half the events/sec is not a regression."""
        baseline = _document({"a": 100.0}, calibration=1_000_000.0)
        current = _document({"a": 50.0}, calibration=500_000.0)
        assert _run(tmp_path, current, baseline) == 0
        assert "geomean ratio: 1.000" in capsys.readouterr().out

    def test_no_calibration_flag_compares_raw(self, tmp_path):
        baseline = _document({"a": 100.0}, calibration=1_000_000.0)
        current = _document({"a": 50.0}, calibration=500_000.0)
        assert _run(tmp_path, current, baseline, use_calibration=False) == 1

    def test_missing_calibration_on_one_side_compares_raw(self, tmp_path, capsys):
        baseline = _document({"a": 100.0})
        current = _document({"a": 100.0}, calibration=500_000.0)
        assert _run(tmp_path, current, baseline) == 0
        assert "comparing raw events/sec" in capsys.readouterr().out


class TestMainEntry:
    def test_main_parses_arguments(self, tmp_path):
        document = _document({"a": 100.0})
        current = _write(tmp_path, "current.json", document)
        baseline = _write(tmp_path, "baseline.json", document)
        assert compare.main([str(current), str(baseline)]) == 0
        assert compare.main([str(current), str(baseline), "--no-calibration"]) == 0
        assert compare.main(
            [str(current), str(baseline), "--max-regression", "0.5"]
        ) == 0


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))


class TestGatedFlag:
    def test_ungated_rows_are_excluded_from_the_gate(self, tmp_path, capsys):
        # The open-loop row regresses badly, but it is marked gated: false
        # (reported-only), so the gate only sees the sim row and passes.
        current = _document({"lion": 100.0})
        current["cases"].append(
            {"name": "openloop-surge-2x", "events_per_second": 1.0, "gated": False}
        )
        baseline = _document({"lion": 100.0, "openloop-surge-2x": 1000.0})
        baseline["cases"][-1]["gated"] = False
        assert _run(tmp_path, current, baseline) == 0
        assert "excluded from the gate" in capsys.readouterr().out


def _counted(cases):
    """A document whose cases carry ``(completed_requests, events_processed)``."""
    document = _document({name: 100.0 for name in cases})
    for case in document["cases"]:
        case["completed_requests"], case["events_processed"] = cases[case["name"]]
    return document


class TestDeterministicCounts:
    """The simulator is deterministic: a shared gated case must reproduce its
    committed and event counts exactly, whatever its events/sec."""

    BASELINE = {"lion": (11824, 99176), "dog": (16209, 332175), "peacock": (11280, 225849)}

    def test_identical_counts_pass(self, tmp_path, capsys):
        assert _run(tmp_path, _counted(self.BASELINE), _counted(self.BASELINE)) == 0
        assert "count differs" not in capsys.readouterr().out

    def test_each_differing_case_is_printed_and_fails(self, tmp_path, capsys):
        current = dict(self.BASELINE, lion=(11825, 99176), peacock=(11280, 225850))
        assert _run(tmp_path, _counted(current), _counted(self.BASELINE)) == 1
        captured = capsys.readouterr()
        assert "count differs: lion: completed_requests 11824 -> 11825" in captured.out
        assert "count differs: peacock: events_processed 225849 -> 225850" in captured.out
        assert captured.out.count("count differs") == 2
        assert "FAIL: 2 committed / event count(s)" in captured.err

    def test_a_count_drift_fails_even_when_faster(self, tmp_path):
        current = _counted(dict(self.BASELINE, dog=(16209, 332176)))
        for case in current["cases"]:
            case["events_per_second"] = 1000.0
        assert _run(tmp_path, current, _counted(self.BASELINE)) == 1

    def test_a_count_missing_on_one_side_is_not_compared(self, tmp_path):
        current = _counted(self.BASELINE)
        del current["cases"][0]["completed_requests"]
        del current["cases"][1]["events_processed"]
        assert _run(tmp_path, current, _counted(self.BASELINE)) == 0

    def test_unshared_and_ungated_cases_are_not_compared(self, tmp_path):
        current = _counted(dict(self.BASELINE, new=(1, 1), sweep=(5, 5)))
        baseline = _counted(dict(self.BASELINE, retired=(2, 2), sweep=(6, 6)))
        for document in (current, baseline):
            document["cases"][-1]["gated"] = False
        assert _run(tmp_path, current, baseline) == 0
