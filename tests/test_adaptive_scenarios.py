"""Scenario gates for the adaptive controller (the acceptance criteria).

The library in :mod:`repro.scenarios.adaptive` runs a live controller
against injected fault environments; these tests assert the full
escalate→de-escalate cycle, the no-flapping property under an oscillating
attacker, churn/malice discrimination under a view-change storm, and
per-shard divergence -- all with zero invariant-checker violations.
"""

import dataclasses

import pytest

from repro.scenarios import run_scenario
from repro.scenarios.adaptive import (
    ADAPTIVE_SCENARIOS,
    CONTROLLER_UNDER_VIEW_CHANGE_STORM,
    DEESCALATE_AFTER_QUIET_PERIOD,
    ESCALATE_ON_EQUIVOCATION,
    OSCILLATING_ATTACKER_MUST_NOT_FLAP,
    PER_SHARD_DIVERGENT_ENVIRONMENTS,
)

from benchmarks.conftest import sweep

pytestmark = [pytest.mark.adaptive, pytest.mark.integration]


@pytest.fixture(scope="module")
def library_results():
    """Run the single-cluster adaptive library once, the scenarios side by side;
    tests assert on the cache."""
    scenarios = list(ADAPTIVE_SCENARIOS.values())
    return dict(zip(ADAPTIVE_SCENARIOS, sweep(run_scenario, [(s,) for s in scenarios])))


class TestAdaptiveScenarioLibrary:
    def test_library_is_large_enough(self):
        # Four single-cluster scenarios plus the sharded divergence one.
        assert len(ADAPTIVE_SCENARIOS) >= 4

    @pytest.mark.parametrize("name", sorted(ADAPTIVE_SCENARIOS))
    def test_library_scenario_upholds_every_invariant(self, library_results, name):
        library_results[name].assert_ok()

    def test_escalation_reaches_peacock_with_zero_violations(self, library_results):
        result = library_results[ESCALATE_ON_EQUIVOCATION.name]
        assert result.invariant_violations == {}
        assert "PEACOCK" in result.final_modes

    def test_full_cycle_returns_to_lion(self, library_results):
        """The acceptance gate: Lion → Peacock on injected equivocation,
        back to Lion after the quiet period, no checker violations."""
        result = library_results[DEESCALATE_AFTER_QUIET_PERIOD.name]
        assert result.invariant_violations == {}
        assert result.final_modes == ("LION",)
        # Both the escalation and the de-escalation really happened.
        labels = [label for _, label in result.events_applied]
        assert any("byzantine" in label for label in labels)
        assert any("restore-honest" in label for label in labels)

    def test_oscillating_attacker_does_not_flap(self, library_results):
        result = library_results[OSCILLATING_ATTACKER_MUST_NOT_FLAP.name]
        assert result.invariant_violations == {}
        # The TransitionsAtMost expectation inside the scenario is the
        # gate; reaching here without failures means no flapping.
        assert result.ok

    def test_view_change_storm_never_escalates_to_peacock(self, library_results):
        result = library_results[CONTROLLER_UNDER_VIEW_CHANGE_STORM.name]
        assert result.invariant_violations == {}
        assert "PEACOCK" not in result.final_modes


class TestPerShardDivergence:
    def test_only_the_attacked_shard_escalates(self):
        result = run_scenario(PER_SHARD_DIVERGENT_ENVIRONMENTS)
        result.assert_ok()
        assert result.mode == "lion/lion"
        assert result.final_modes == ("LION", "PEACOCK")
        # Cross-shard transactions kept committing across the divergence.
        assert result.transactions["committed"] >= 1

    def test_the_divergence_verdicts_are_expectations(self):
        # With no attacker nothing escalates: the attacked shard's
        # expectation fails (and says which shard), the clean shard's hold.
        quiet = dataclasses.replace(PER_SHARD_DIVERGENT_ENVIRONMENTS, events=(), duration=0.3)
        result = run_scenario(quiet)
        assert result.invariant_violations == {}
        assert len(result.expectation_failures) == 1
        assert result.expectation_failures[0].startswith(
            "shard 0: replicas not in mode PEACOCK"
        )
