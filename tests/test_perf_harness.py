"""Schema and regression-gate tests for the perf harness (benchmarks/perf)."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

import pytest

_PERF_DIR = pathlib.Path(__file__).parent.parent / "benchmarks" / "perf"


def _load(module_name: str):
    spec = importlib.util.spec_from_file_location(module_name, _PERF_DIR / f"{module_name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[module_name] = module
    spec.loader.exec_module(module)
    return module


harness = _load("harness")
compare = _load("compare")


REQUIRED_CASE_KEYS = {
    "name", "protocol", "crash_tolerance", "byzantine_tolerance",
    "batched", "fault_scenario", "num_shards",
    "sim_duration", "completed_requests", "events_processed", "wall_seconds",
    "events_per_second", "sim_seconds_per_wall_second",
    "throughput_requests_per_second", "peak_heap_bytes", "deterministic",
    "gated",
}


class TestHarnessDocument:
    @pytest.fixture(scope="class")
    def document(self):
        # One tiny case keeps this in the fast tier.
        case = harness.PerfCase(
            name="tiny-lion", protocol="seemore-lion", duration=0.05, warmup=0.02
        )
        return harness.run_suite(cases=[case], repeats=2, measure_heap=True)

    def test_schema_shape(self, document):
        assert document["schema_version"] == harness.SCHEMA_VERSION
        assert document["host"]["python"]
        assert document["config"] == {"repeats": 2, "smoke": False}
        (row,) = document["cases"]
        assert set(row) == REQUIRED_CASE_KEYS
        assert row["deterministic"] is True
        assert row["events_per_second"] > 0
        assert row["peak_heap_bytes"] > 0
        assert document["summary"]["events_per_second_geomean"] > 0

    def test_document_round_trips_as_json(self, document, tmp_path):
        path = harness.write_bench(document, tmp_path / "BENCH_test.json")
        assert json.loads(path.read_text()) == document

    def test_standard_matrix_names_are_unique(self):
        names = [case.name for case in harness.standard_cases()]
        assert len(names) == len(set(names))
        smoke_names = {case.name for case in harness.standard_cases(smoke=True)}
        # Every smoke case exists in the full matrix so CI can compare
        # against the committed full baseline.
        assert smoke_names <= set(names)


class TestCompareGate:
    def _write(self, tmp_path, name, rates, calibration=None):
        document = {
            "schema_version": 1,
            "cases": [
                {"name": case, "events_per_second": rate} for case, rate in rates.items()
            ],
        }
        if calibration is not None:
            document["host"] = {"calibration_ops_per_second": calibration}
        path = tmp_path / name
        path.write_text(json.dumps(document))
        return path

    def test_pass_when_no_regression(self, tmp_path, capsys):
        baseline = self._write(tmp_path, "base.json", {"a": 100.0, "b": 200.0})
        current = self._write(tmp_path, "cur.json", {"a": 95.0, "b": 210.0})
        assert compare.compare(current, baseline, max_regression=0.25) == 0

    def test_fail_on_large_regression(self, tmp_path):
        baseline = self._write(tmp_path, "base.json", {"a": 100.0, "b": 200.0})
        current = self._write(tmp_path, "cur.json", {"a": 60.0, "b": 120.0})
        assert compare.compare(current, baseline, max_regression=0.25) == 1

    def test_calibration_normalizes_cross_machine_comparison(self, tmp_path):
        # Baseline from a machine twice as fast: raw ratio 0.52 would fail,
        # but normalized by each side's calibration it is fine.
        baseline = self._write(tmp_path, "base.json", {"a": 1000.0}, calibration=100.0)
        current = self._write(tmp_path, "cur.json", {"a": 520.0}, calibration=50.0)
        assert compare.compare(current, baseline, max_regression=0.25) == 0
        # A genuine regression still fails after normalization.
        slow = self._write(tmp_path, "slow.json", {"a": 300.0}, calibration=50.0)
        assert compare.compare(slow, baseline, max_regression=0.25) == 1

    def test_error_when_no_shared_cases(self, tmp_path):
        baseline = self._write(tmp_path, "base.json", {"a": 100.0})
        current = self._write(tmp_path, "cur.json", {"b": 100.0})
        assert compare.compare(current, baseline, max_regression=0.25) == 2

    def test_new_cases_warn_but_never_gate(self, tmp_path, capsys):
        # A candidate that *added* cases (e.g. the sharded matrix) compares
        # only the intersection: the new cases are reported, not gated on.
        baseline = self._write(tmp_path, "base.json", {"a": 100.0, "b": 200.0})
        current = self._write(
            tmp_path, "cur.json", {"a": 100.0, "b": 200.0, "sharded-4x": 1.0}
        )
        assert compare.compare(current, baseline, max_regression=0.25) == 0
        out = capsys.readouterr().out
        assert "missing from the baseline" in out
        assert "sharded-4x" in out

    def test_baseline_only_cases_warn_and_are_ignored(self, tmp_path, capsys):
        baseline = self._write(tmp_path, "base.json", {"a": 100.0, "retired": 900.0})
        current = self._write(tmp_path, "cur.json", {"a": 100.0})
        assert compare.compare(current, baseline, max_regression=0.25) == 0
        out = capsys.readouterr().out
        assert "missing from the current run" in out
        assert "retired" in out

    def test_identical_case_sets_do_not_warn(self, tmp_path, capsys):
        baseline = self._write(tmp_path, "base.json", {"a": 100.0})
        current = self._write(tmp_path, "cur.json", {"a": 100.0})
        assert compare.compare(current, baseline, max_regression=0.25) == 0
        assert "warning" not in capsys.readouterr().out

    def test_committed_baseline_is_valid(self):
        committed = sorted(_PERF_DIR.glob("BENCH_*.json"))
        assert committed, "a BENCH_*.json baseline must be committed under benchmarks/perf/"
        document = json.loads(committed[-1].read_text())
        assert document["schema_version"] == harness.SCHEMA_VERSION
        case_names = {case["name"] for case in document["cases"]}
        smoke_names = {case.name for case in harness.standard_cases(smoke=True)}
        assert smoke_names <= case_names

    @pytest.mark.parametrize(
        "path", sorted(_PERF_DIR.glob("BENCH_*.json")), ids=lambda path: path.name
    )
    def test_every_committed_baseline_still_loads_and_gates(self, path):
        cases, calibration = compare.load(path)
        assert cases and all(case["events_per_second"] > 0 for case in cases.values())
        assert compare.compare(path, path, max_regression=0.25) == 0
