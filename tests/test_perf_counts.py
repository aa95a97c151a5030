"""The determinism pin of the simulator's 25 standard workloads.

Lion, Dog and Peacock at c = m = 1..3, batched and unbatched; each mode's
primary crashing mid-batch; the adaptive controller's attack and recovery;
one shard, four shards, and four shards with 10% cross-shard transactions.
Every case must reproduce its record in ``tests/data/perf_counts_golden.json``
exactly.  A closed-loop run is recorded by the scenario matrix's
``run_record`` and a library scenario (on seed 3) by its ``scenario_record``,
so beside the requests completed and the simulator events processed the file
pins timeouts, latency percentiles, views and 2PC counters.  The simulator is
deterministic: a differing field is a change in what the protocol did, not
noise.

The file was written from commit ``cd535a8``, whose ``completed`` and
``events_processed`` for all 25 cases equal the counts the retired perf
harness gated on.  ``python tests/test_perf_counts.py``
rewrites it from the current tree.  No wall-clock number is pinned here:
events/s and peak heap come from ``benchmarks/e2e`` and nowhere else.

Eight cases run on every push: the six single-cluster ones below (each
mode's batched run and its primary crash) in the fast tier, the four-shard
one under the ``shard`` marker and the adaptive one under ``adaptive``.  The
other seventeen are ``slow`` and run nightly.
"""

import json
import pathlib
import re
from dataclasses import replace
from functools import partial

import pytest

from repro.cluster import build_sharded_seemore, builder_for, run_deployment
from repro.core import BatchPolicy, Mode
from repro.scenarios import SCENARIOS, run_scenario
from repro.scenarios.adaptive import DEESCALATE_AFTER_QUIET_PERIOD
from repro.workload import Workload, WorkloadSpec
from test_scenarios_matrix import run_record, scenario_record

from benchmarks.conftest import sweep_pool

pytestmark = pytest.mark.integration

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "perf_counts_golden.json"
SEED = 3
#: Batches that actually fill, as in the throughput benchmarks.
BATCH = BatchPolicy(max_batch=16, linger=0.002)

#: The cases that run on every push, with the marker of the job that runs them.
SMOKE = {
    "lion-f1-batched": (),
    "dog-f1-batched": (),
    "peacock-f1-batched": (),
    "lion-f1-batched-primary-crash": (),
    "dog-f1-batched-primary-crash": (),
    "peacock-f1-batched-primary-crash": (),
    "sharded-4x-f1-batched": (pytest.mark.shard,),
    "adaptive-attack-recovery": (pytest.mark.adaptive,),
}


def _closed_loop(protocol, tolerance, batched):
    deployment = builder_for(protocol)(
        crash_tolerance=tolerance,
        byzantine_tolerance=tolerance,
        num_clients=6,
        workload=Workload.build("0/0"),
        seed=SEED,
        batch_policy=BATCH if batched else None,
        client_window=32 if batched else 4,
    )
    result = run_deployment(deployment, duration=0.4 if batched else 0.3, warmup=0.1)
    return run_record(deployment, result)


def _sharded(num_shards, cross_shard_fraction):
    deployment = build_sharded_seemore(
        num_shards=num_shards,
        num_clients=6 * num_shards,
        workload=Workload.build(
            WorkloadSpec(kind="sharded-kv", seed=SEED, cross_shard_fraction=cross_shard_fraction)
        ),
        seed=SEED,
        batch_policy=BATCH,
        client_window=32,
    )
    return run_record(deployment, run_deployment(deployment, duration=0.4, warmup=0.1))


def _scenario(scenario, mode):
    result = run_scenario(replace(scenario, seed=SEED), mode)
    result.assert_ok()
    return scenario_record(result)


def _cases():
    """``case name -> zero-argument run returning its golden record``."""
    cases = {}
    for mode in (Mode.LION, Mode.DOG, Mode.PEACOCK):
        short = mode.name.lower()
        for tolerance in (1, 2, 3):
            for batched, flavour in ((True, "batched"), (False, "unbatched")):
                cases[f"{short}-f{tolerance}-{flavour}"] = partial(
                    _closed_loop, f"seemore-{short}", tolerance, batched
                )
        cases[f"{short}-f1-batched-primary-crash"] = partial(
            _scenario, SCENARIOS["primary-crash-mid-batch"], mode
        )
    cases["adaptive-attack-recovery"] = partial(
        _scenario, DEESCALATE_AFTER_QUIET_PERIOD, Mode.LION
    )
    for name, num_shards, cross_shard_fraction in (
        ("sharded-1x-f1-batched", 1, 0.0),
        ("sharded-4x-f1-batched", 4, 0.0),
        ("sharded-4x-f1-xshard10", 4, 0.1),
    ):
        cases[name] = partial(_sharded, num_shards, cross_shard_fraction)
    return cases


CASES = _cases()


def load_golden(path=GOLDEN_PATH):
    return json.loads(pathlib.Path(path).read_text())


def run_case(name):
    return CASES[name]()


def check_case(name, golden, record):
    """Fail naming every field of case ``name``'s ``record`` that differs from ``golden``."""
    expected = golden[name]
    differences = [
        f"{name}: {field} {expected.get(field)!r} -> {record.get(field)!r}"
        for field in sorted(expected.keys() | record.keys())
        if expected.get(field) != record.get(field)
    ]
    assert not differences, "\n".join(differences)


@pytest.fixture(scope="module")
def golden():
    return load_golden()


@pytest.fixture(scope="module")
def records(request):
    """A future record of every case this session selected, all submitted up
    front so the cases run side by side; a case that raises fails only its test."""
    pool = sweep_pool()
    yield {
        item.callspec.params["name"]: pool.submit(run_case, item.callspec.params["name"])
        for item in request.session.items
        if getattr(item, "function", None) is test_case_matches_golden
    }
    pool.shutdown(cancel_futures=True)


def test_golden_covers_exactly_the_cases(golden):
    assert len(CASES) == 25
    assert set(golden) == set(CASES)
    assert set(SMOKE) <= set(CASES)


@pytest.mark.parametrize(
    "name",
    [pytest.param(name, marks=SMOKE.get(name, (pytest.mark.slow,)), id=name) for name in CASES],
)
def test_case_matches_golden(name, golden, records):
    check_case(name, golden, records[name].result())


def test_a_changed_count_fails_naming_case_field_and_both_values(golden, tmp_path):
    name = "lion-f1-batched-primary-crash"
    current = golden[name]["completed"]
    changed = json.loads(json.dumps(golden))
    changed[name]["completed"] = current + 1
    path = tmp_path / GOLDEN_PATH.name
    path.write_text(json.dumps(changed))
    line = f"{name}: completed {current + 1} -> {current}"
    with pytest.raises(AssertionError, match=re.escape(line)):
        check_case(name, load_golden(path), run_case(name))


def test_a_case_reads_the_same_record_twice_in_one_process():
    run = CASES["lion-f1-batched-primary-crash"]
    assert run() == run()


if __name__ == "__main__":
    records = {name: run() for name, run in CASES.items()}
    GOLDEN_PATH.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
