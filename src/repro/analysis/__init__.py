"""Analytic comparisons and result formatting.

* :mod:`repro.analysis.comparison` regenerates Table 1 of the paper (number
  of phases, message complexity, receiving network size, quorum size for
  each protocol) from the protocol definitions rather than hard-coded
  strings, and provides exact per-request message counts for the ablation
  benchmarks.
* :mod:`repro.analysis.report` formats benchmark results into the tables
  the harness prints.
"""

from repro.analysis.comparison import (
    ProtocolProfile,
    comparison_table,
    messages_per_request,
    profile_for,
)
from repro.analysis.report import (
    format_adaptive_decisions,
    format_results_table,
    format_run_report,
    format_scenario_results,
    format_series,
    format_timeline,
)

__all__ = [
    "ProtocolProfile",
    "comparison_table",
    "profile_for",
    "messages_per_request",
    "format_adaptive_decisions",
    "format_results_table",
    "format_run_report",
    "format_scenario_results",
    "format_series",
    "format_timeline",
]
