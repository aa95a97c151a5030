"""The benchmark's own smoke test: contract, determinism, span bookkeeping.

Everything goes through ``run.py`` in a subprocess, exactly as the driver
calls it, with ``--quick`` so the whole module stays well under a minute.
"""

from __future__ import annotations

import functools
import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]
SIM_WORKLOADS = [name for name in WORKLOADS if name.startswith("sim-")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
#: Per-layer metrics that are a function of the seed alone on the simulator.
EXACT_ON_SIM = ("smr.latency_p99_ms", "core.failover_gap_ms", "sim.events", "core.msgs_per_req")


def run_quick(workload: str, trace: int, seed: int = 3):
    """One ``--quick`` run; returns (result object, everything printed before it)."""
    done = subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], "--workload", workload, "--seed", str(seed),
         "--seconds", "5", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stderr == "", done.stderr
    *printed, last = done.stdout.strip().splitlines()
    return json.loads(last), "\n".join(printed)


first_quick = functools.lru_cache(maxsize=None)(run_quick)


def values(result) -> dict:
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def test_contract_names_are_well_formed_and_unique():
    names = WORKLOADS + [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"
    ).items()
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    result, printed = first_quick(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in CONTRACT["end_to_end"]]
    for metric in CONTRACT["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0
        assert re.search(
            rf"{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}$", printed, re.M
        )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_per_layer_metric_is_printed_and_self_times_add_up(workload):
    result, printed = first_quick(workload, 1)
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in CONTRACT["per_layer"]]
    for metric in CONTRACT["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert f"  {metric['name']} " in printed
    value = values(result)
    assert value["trace.spans"] > 0 and value["trace.overhead_ratio"] > 0
    covered = value["trace.self_sum_s"] + value["runtime.aio.loop_other_s"]
    assert covered == pytest.approx(value["trace.wall_s"], rel=0.05)
    spans = (HERE / "results" / f"trace-{workload}.jsonl").read_text().splitlines()
    assert len(spans) == value["trace.spans"]
    assert set(json.loads(spans[0])) == {
        "process", "id", "name", "layer", "start", "end", "parent", "req"
    }
    assert value["core.view_changes"] == (1 if workload == "sim-lion-crash" else 0)


@pytest.mark.parametrize("workload", SIM_WORKLOADS)
def test_simulated_metrics_repeat_exactly_for_a_seed_and_move_with_it(workload):
    def exact(seed: int, run=run_quick):
        layers = values(run(workload, 1, seed)[0])
        return [layers[name] for name in EXACT_ON_SIM]

    first = exact(3, run=first_quick)
    assert exact(3) == first
    assert exact(4) != first
    p50 = values(first_quick(workload, 0)[0])["latency_p50_ms"]
    assert values(run_quick(workload, 0)[0])["latency_p50_ms"] == p50


def test_messages_per_request_repeat_exactly_on_real_tcp():
    first = values(first_quick("aio-lion-closed", 1)[0])
    again = values(run_quick("aio-lion-closed", 1)[0])
    assert again["core.msgs_per_req"] == first["core.msgs_per_req"]
