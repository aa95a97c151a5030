"""Plain-text formatting of benchmark results.

The benchmark harness prints the same rows and series the paper reports;
these helpers keep that formatting in one place so every bench produces a
consistent, diff-able layout in ``bench_output.txt``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple


def format_results_table(rows: Iterable[Dict], columns: Sequence[str] = ()) -> str:
    """Render dict rows as an aligned text table."""
    rows = list(rows)
    if not rows:
        return "(no results)"
    if not columns:
        columns = list(rows[0].keys())
    widths = {column: len(str(column)) for column in columns}
    for row in rows:
        for column in columns:
            widths[column] = max(widths[column], len(str(row.get(column, ""))))
    header = "  ".join(str(column).ljust(widths[column]) for column in columns)
    separator = "  ".join("-" * widths[column] for column in columns)
    lines = [header, separator]
    for row in rows:
        lines.append(
            "  ".join(str(row.get(column, "")).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)


def format_series(
    title: str, points: Sequence[Tuple[float, float]], x_label: str = "x", y_label: str = "y"
) -> str:
    """Render an (x, y) series as the rows of one figure line."""
    lines = [f"{title}  ({x_label} vs {y_label})"]
    for x, y in points:
        lines.append(f"  {x_label}={x:<12.4f} {y_label}={y:.4f}")
    return "\n".join(lines)


def format_run_report(reports: Iterable, title: str = "Run results") -> str:
    """Summarise measured runs, one table row each.

    ``reports`` is an iterable of :class:`~repro.cluster.runner.RunResult`
    (plain, sharded or open-loop — the sections a run has become extra
    columns) and :class:`~repro.runtime.proc.ProcResult`.  Rows come from
    ``as_row()``; every row whose ``violations`` count is not zero is
    flagged under the table.
    """
    rows = [report.as_row() for report in reports]
    if not rows:
        return f"{title}\n(no results)"
    columns = list(dict.fromkeys(column for row in rows for column in row))
    lines = [title, format_results_table(rows, columns=columns)]
    for row in rows:
        if row.get("violations"):
            lines.append(
                f"VIOLATIONS: {row.get('protocol', '?')} reported {row['violations']} "
                f"violation(s) over {row.get('completed', '?')} completed"
            )
    return "\n".join(lines)


def format_scenario_results(results: Iterable, title: str = "Fault scenarios") -> str:
    """Summarise fault-scenario runs (one row per scenario × mode).

    ``results`` is an iterable of
    :class:`~repro.scenarios.engine.ScenarioResult` of any scenario kind
    (sharded runs add their 2PC columns); failing runs get their individual
    invariant/expectation failures listed under the table.
    """
    results = list(results)
    rows = [result.as_row() for result in results]
    columns = [
        "scenario", "mode", "completed", "timeouts", "max_view",
        "state_transfers", "failures", "verdict",
    ]
    columns[3:3] = [
        column
        for column in ("txns_committed", "txns_aborted")
        if any(column in row for row in rows)
    ]
    lines = [title, format_results_table(rows, columns=columns)]
    failing = [result for result in results if not result.ok]
    for result in failing:
        lines.append(f"\n{result.scenario} [{result.mode}] failed:")
        lines.extend(f"  {failure}" for failure in result.failures())
    passed = len(results) - len(failing)
    lines.append(f"\n{passed}/{len(results)} scenario runs passed")
    return "\n".join(lines)


def format_adaptive_decisions(
    decisions: Iterable,
    title: str = "Adaptive controller decisions",
    shard: Optional[int] = None,
) -> str:
    """Summarise an adaptive controller's switch decisions.

    ``decisions`` is an iterable of
    :class:`~repro.adaptive.ControllerDecision` (or of their ``as_row``
    dicts).  ``shard`` prefixes every row with a shard index, so sharded
    reports can concatenate per-shard controllers into one table.
    """
    rows = [
        decision.as_row() if hasattr(decision, "as_row") else dict(decision)
        for decision in decisions
    ]
    if shard is not None:
        rows = [{"shard": shard, **row} for row in rows]
    if not rows:
        return f"{title}\n(no controller decisions)"
    columns = (["shard"] if shard is not None else []) + [
        "t", "switch", "reason", "m_hat", "c_hat", "byz_events", "churn_events", "applied",
    ]
    return "\n".join([title, format_results_table(rows, columns=columns)])


def format_timeline(title: str, bins: Sequence[Tuple[float, float]], time_unit: str = "s") -> str:
    """Render a throughput timeline (Figure 4 style) as text."""
    lines = [f"{title}  (time [{time_unit}] vs throughput [req/s])"]
    peak = max([1.0] + [value for _, value in bins])
    for bin_start, value in bins:
        bar = "#" * max(0, int(value / peak * 40))
        lines.append(f"  t={bin_start:<10.4f} {value:>12.1f}  {bar}")
    return "\n".join(lines)
