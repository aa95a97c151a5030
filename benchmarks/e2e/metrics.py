"""From observations to named metrics.

``adapters.run_once`` returns one observation per repeat; this module folds
the repeats of a run into the end-to-end metrics (tracing off) or the
per-layer metrics (traced repeats).

End-to-end times are in *reference seconds*: every repeat carries a yardstick
(``yardstick.py``) that reads the host's speed all through it, and
``host_speed`` of an observation is reference seconds per wall second over its
measured window.  A rate is divided by it and a time multiplied, which takes
out the reference host's habit of running at 60-100 % of its speed for seconds
or minutes at a time.  A value is the median over the calmer half of the run's
repeats (see :func:`calmest_half`).

The names and units here are the ones ``BENCHMARK.json`` lists; the test next
to this file holds the two in step.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Sequence

Metric = Dict[str, Any]  # {"value": number, "unit": str}

END_TO_END_UNITS: Dict[str, str] = {
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "cpu_s_per_kreq": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: name -> unit.  The layer is the part of the name before the last dot.
PER_LAYER_UNITS: Dict[str, str] = {
    "runtime.aio.envelope_encode_s": "s",
    "runtime.aio.envelope_decode_s": "s",
    "runtime.aio.cpu_busy_s": "s",
    "runtime.aio.cpu_items": "count",
    "runtime.aio.cpu_wait_p99_ms": "ms",
    "runtime.aio.loop_other_s": "s",
    "runtime.proc.spawn_s": "s",
    "runtime.proc.shutdown_s": "s",
    "runtime.proc.busy_s_max_worker": "s",
    "runtime.proc.stats_msgs": "count",
    "wire.encode_calls": "count",
    "wire.encode_s": "s",
    "wire.decode_calls": "count",
    "wire.decode_s": "s",
    "wire.bytes_per_req": "B",
    "crypto.sign_calls": "count",
    "crypto.sign_s": "s",
    "crypto.verify_calls": "count",
    "crypto.verify_s": "s",
    "crypto.digest_s": "s",
    "crypto.hmac_fallbacks": "count",
    "crypto.verify_hit_ratio": "ratio",
    "core.handler_calls": "count",
    "core.handler_self_s": "s",
    "core.msgs_per_req": "count",
    "core.batch_size_mean": "count",
    "core.view_changes": "count",
    "core.busy_rejects": "count",
    "core.failover_gap_ms": "ms",
    "smr.client_self_s": "s",
    "smr.execute_s": "s",
    "smr.client_retransmits": "count",
    "smr.latency_p99_ms": "ms",
    "sim.events": "count",
    "sim.events_per_req": "count",
    "sim.events_per_s": "1/s",
    "sim.engine_self_s": "s",
    "sim.peak_heap_mb": "MB",
    "net.msgs_delivered": "count",
    "net.msgs_dropped": "count",
    "net.node_self_s": "s",
    "shard.txns": "count",
    "shard.txn_aborts": "count",
    "shard.router_s": "s",
    "shard.coordinator_self_s": "s",
    "workload.offered": "count",
    "workload.dropped": "count",
    "workload.shed": "count",
    "workload.gen_late_p99_ms": "ms",
    "workload.gen_self_s": "s",
    "workload.failed_frac": "ratio",
    "cluster.build_s": "s",
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def calmest_half(observations: List[Dict[str, Any]], speed: str) -> List[Dict[str, Any]]:
    """The half of ``observations`` (rounded up) with the host fastest by ``speed``.

    The yardstick picks them, not their own results, so the choice does not
    favour lucky repeats; it keeps the conversion to reference seconds close to
    1, where it is most accurate.
    """
    by_speed = sorted(observations, key=lambda obs: obs[speed], reverse=True)
    return by_speed[: (len(by_speed) + 1) // 2]


def end_to_end(
    repeats: List[Dict[str, Any]], warmups: List[Dict[str, Any]], own_rss_mb: float
) -> Dict[str, Metric]:
    """The end-to-end metrics of one untraced run (see the module docstring).

    Every repeat, warm-up or measured, contributes a set-up time.
    """
    calm = calmest_half(repeats, "host_speed")
    # An open loop completes what the generator offers per wall second however
    # fast the host is: its rate stays in wall seconds and every repeat counts.
    paced = repeats[0]["paced"]
    values = {
        "throughput_rps": statistics.median(
            obs["throughput_rps"] / (1.0 if paced else obs["host_speed"])
            for obs in (repeats if paced else calm)
        ),
        # Simulated latencies are on the simulated clock and exact.
        "latency_p50_ms": statistics.median(
            percentile(obs["latencies_ms"], 0.50)
            * (obs["host_speed"] if obs["wall_clock_latency"] else 1.0)
            for obs in calm
        ),
        "cpu_s_per_kreq": statistics.median(
            obs["cpu_s"] * obs["host_speed"] / max(1, obs["completed"]) * 1000.0 for obs in calm
        ),
        "peak_rss_mb": own_rss_mb + max(obs["worker_rss_mb"] for obs in repeats),
        "setup_s": statistics.median(
            obs["setup_s"] * obs["setup_speed"]
            for obs in calmest_half(warmups + repeats, "setup_speed")
        ),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def _span_totals(obs: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Calls and self time per span name, summed over the run's processes."""
    merged: Dict[str, Dict[str, float]] = {}
    for trace in obs["traces"]:
        for name, entry in trace["spans"].totals().items():
            into = merged.setdefault(name, {"calls": 0, "self_s": 0.0, "layer": entry["layer"]})
            into["calls"] += entry["calls"]
            into["self_s"] += entry["self_s"]
    return merged


def _longest_gap_ms(times: Sequence[float]) -> float:
    return max((b - a for a, b in zip(times, times[1:])), default=0.0) * 1e3


def per_layer_of(
    obs: Dict[str, Any], untraced: Dict[str, Any], peak_heap_mb: float
) -> Dict[str, float]:
    """Every per-layer metric of one traced repeat; 0 where a layer did not run.

    ``untraced`` is the same repeat run with tracing off just before: speeds
    and latencies are read off it, so the wrappers' cost is not in them.
    Times are wall seconds of the traced repeat as measured; only the two
    ratios to the untraced twin (``sim.events_per_s``, ``trace.overhead_ratio``)
    compare reference seconds, because the host may have changed speed
    between the two repeats.
    """
    untraced_wall_s = untraced["wall_s"] * untraced["host_speed"]
    totals = _span_totals(obs)
    counters = obs["counters"]
    completed = max(1, obs["completed"])

    def self_s(*names: str) -> float:
        return sum(totals[name]["self_s"] for name in names if name in totals)

    def calls(name: str) -> float:
        return totals[name]["calls"] if name in totals else 0

    def layer_self_s(layer: str) -> float:
        return sum(entry["self_s"] for entry in totals.values() if entry["layer"] == layer)

    traces = obs["traces"]
    wall_s = sum(trace["wall_s"] for trace in traces)
    top_level_s = sum(trace["spans"].top_level_seconds() for trace in traces)
    cpu_waits = [wait for trace in traces for wait in trace["cpu_waits_ms"]]
    gen_late = [late for trace in traces for late in trace["gen_late_ms"]]
    verified = counters.get("verified", 0)
    fallbacks = counters.get("hmac_fallbacks", 0)
    events = counters.get("sim_events", 0)
    return {
        "runtime.aio.envelope_encode_s": self_s("aio.envelope_encode"),
        "runtime.aio.envelope_decode_s": self_s("aio.envelope_decode"),
        "runtime.aio.cpu_busy_s": counters.get("cpu_busy_s", 0.0),
        "runtime.aio.cpu_items": counters.get("cpu_items", 0),
        "runtime.aio.cpu_wait_p99_ms": percentile(cpu_waits, 0.99),
        "runtime.aio.loop_other_s": max(0.0, wall_s - top_level_s),
        "runtime.proc.spawn_s": counters.get("spawn_s", 0.0),
        "runtime.proc.shutdown_s": counters.get("shutdown_s", 0.0),
        "runtime.proc.busy_s_max_worker": counters.get("busy_s_max_worker", 0.0),
        "runtime.proc.stats_msgs": counters.get("stats_msgs", 0),
        "wire.encode_calls": calls("wire.encode"),
        "wire.encode_s": self_s("wire.encode"),
        "wire.decode_calls": calls("wire.decode"),
        "wire.decode_s": self_s("wire.decode"),
        "wire.bytes_per_req": counters["bytes_delivered"] / completed,
        "crypto.sign_calls": calls("crypto.sign"),
        "crypto.sign_s": self_s("crypto.sign"),
        "crypto.verify_calls": calls("crypto.verify"),
        "crypto.verify_s": self_s("crypto.verify"),
        "crypto.digest_s": self_s("crypto.digest"),
        "crypto.hmac_fallbacks": fallbacks,
        "crypto.verify_hit_ratio": 1.0 - fallbacks / verified if verified else 0.0,
        "core.handler_calls": calls("core.handle"),
        "core.handler_self_s": layer_self_s("core"),
        "core.msgs_per_req": counters["msgs_delivered"] / completed,
        "core.batch_size_mean": counters["batch_size_mean"],
        "core.view_changes": counters["view_changes"],
        "core.busy_rejects": counters["busy_rejects"],
        "core.failover_gap_ms": _longest_gap_ms(untraced["completion_times"]),
        "smr.client_self_s": self_s("smr.client.handle", "smr.client.issue", "smr.client.timeout"),
        "smr.execute_s": self_s("smr.execute"),
        "smr.client_retransmits": counters["client_retransmits"],
        "smr.latency_p99_ms": percentile(untraced["latencies_ms"], 0.99),
        "sim.events": events,
        "sim.events_per_req": events / completed,
        # Simulator speed is read off the untraced twin of this repeat.
        "sim.events_per_s": events / untraced_wall_s if untraced_wall_s else 0.0,
        "sim.engine_self_s": self_s("sim.run"),
        "sim.peak_heap_mb": peak_heap_mb,
        "net.msgs_delivered": counters["msgs_delivered"],
        "net.msgs_dropped": counters["msgs_dropped"],
        "net.node_self_s": layer_self_s("net"),
        "shard.txns": counters.get("txns", 0),
        "shard.txn_aborts": counters.get("txn_aborts", 0),
        "shard.router_s": self_s("shard.router"),
        "shard.coordinator_self_s": self_s("shard.coordinator"),
        "workload.offered": counters.get("offered", obs["attempted"]),
        "workload.dropped": counters.get("dropped", 0),
        "workload.shed": counters.get("shed", 0),
        "workload.gen_late_p99_ms": percentile(gen_late, 0.99),
        "workload.gen_self_s": layer_self_s("workload"),
        "workload.failed_frac": untraced["failed"] / max(1, untraced["attempted"]),
        "cluster.build_s": counters["build_s"],
        "trace.wall_s": wall_s,
        "trace.self_sum_s": sum(entry["self_s"] for entry in totals.values()),
        "trace.spans": sum(len(trace["spans"]) for trace in traces),
        "trace.overhead_ratio": (
            obs["wall_s"] * obs["host_speed"] / untraced_wall_s if untraced_wall_s else 0.0
        ),
    }


def per_layer(per_repeat: List[Dict[str, float]]) -> Dict[str, Metric]:
    """Median of each per-layer metric over the traced repeats of a run."""
    return {
        name: {"value": statistics.median(values[name] for values in per_repeat), "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }
