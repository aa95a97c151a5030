"""The sharded fault-scenario library.

The same declarative :class:`~repro.scenarios.engine.Scenario`, naming a
mode per shard, run by the same
:func:`~repro.scenarios.engine.run_scenario` against the same
:class:`~repro.cluster.deployment.Deployment`, here with several groups and
routed clients.  What is specific to shards sits with its kind: the
``OnShard`` / ``IsolateShard`` events in :mod:`~repro.scenarios.events`, the
cross-shard-atomicity checker (a scenario with ``modes`` adds it to the
standard four) in :mod:`~repro.scenarios.invariants`, and the
``TransactionsAtLeast`` / ``ShardExpects`` expectations in
:mod:`~repro.scenarios.engine`.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Dict

from repro.core.admission import AdmissionPolicy
from repro.core.batching import BatchPolicy
from repro.core.modes import Mode
from repro.scenarios.engine import OpenLoop, Scenario, TransactionsAtLeast
from repro.scenarios.events import (
    Byzantine,
    Crash,
    HealPartition,
    IsolateShard,
    ModeSwitch,
    OnShard,
    Recover,
)
from repro.workload.generator import WorkloadSpec
from repro.workload.openloop import BurstyArrivals
from repro.workload.slo import SloSpec

#: What a sharded scenario starts from (``replace(SHARDED_BASE, name=...,
#: ...)``): two Lion shards under the sharded key-value mix with a fifth of
#: the operations on the two-phase path, three clients pipelining two
#: requests each, a coordinator that aborts after 0.3 s without prepare
#: votes, and at least one transaction committed.
SHARDED_BASE = Scenario(
    name="sharded-base",
    description="Two Lion shards, one keyspace, no faults.",
    modes=(Mode.LION, Mode.LION),
    expectations=(TransactionsAtLeast("committed", 1),),
    settle=0.3,
    num_clients=3,
    client_window=2,
    workload=WorkloadSpec(kind="sharded-kv", key_space=200, cross_shard_fraction=0.2),
    txn_timeout=0.3,
)

# -- the library ------------------------------------------------------------------


SHARD_PRIMARY_CRASH = replace(
    SHARDED_BASE,
    name="shard-primary-crash-mid-traffic",
    description="One shard's primary crashes under mixed single/cross-shard load; "
    "that shard must view-change while the others keep serving, and every "
    "cross-shard transaction must stay atomic.",
    modes=(Mode.LION, Mode.LION, Mode.LION),
    events=(OnShard(at=0.15, shard=1, event=Crash(at=0.0, target="primary")),),
    expectations=(TransactionsAtLeast("committed", 3),),
    duration=0.9,
)

SHARD_ISOLATED_THEN_HEALS = replace(
    SHARDED_BASE,
    name="shard-isolated-then-heals",
    description="A whole shard is partitioned away mid-traffic; transactions "
    "touching it abort on the coordinator timeout (atomically), the rest of "
    "the keyspace keeps serving, and the shard rejoins after the heal.",
    modes=(Mode.LION, Mode.LION),
    events=(IsolateShard(at=0.15, shard=1), HealPartition(at=0.45)),
    expectations=(TransactionsAtLeast("committed", 1), TransactionsAtLeast("aborted", 1)),
    duration=1.0,
    settle=0.4,
    workload=replace(SHARDED_BASE.workload, cross_shard_fraction=0.3),
    txn_timeout=0.12,
)

MIXED_MODE_SHARDS = replace(
    SHARDED_BASE,
    name="mixed-mode-shards-under-load",
    description="Three shards running Lion, Dog, and Peacock serve one keyspace; "
    "cross-shard transactions span trust domains and must commit atomically.",
    modes=(Mode.LION, Mode.DOG, Mode.PEACOCK),
    expectations=(TransactionsAtLeast("committed", 5),),
    workload=replace(SHARDED_BASE.workload, cross_shard_fraction=0.25),
    duration=0.8,
)

SHARD_BYZANTINE_BACKUP = replace(
    SHARDED_BASE,
    name="shard-byzantine-backup-lies",
    description="A public-cloud replica of one shard forges results under load; "
    "no client may accept a reply its shard's correct replicas did not produce.",
    modes=(Mode.LION, Mode.LION),
    events=(
        OnShard(at=0.12, shard=0, event=Byzantine(at=0.0, target="public-backup", strategy="lie")),
    ),
    duration=0.7,
)

SHARD_CRASH_RECOVER_WITH_MODE_SWITCH = replace(
    SHARDED_BASE,
    name="shard-crash-recover-mode-switch",
    description="One shard loses a private backup and recovers it while another "
    "shard switches modes mid-traffic; both local repairs must stay invisible "
    "to cross-shard atomicity.",
    modes=(Mode.LION, Mode.LION),
    events=(
        OnShard(at=0.1, shard=0, event=Crash(at=0.0, target="private:1")),
        OnShard(at=0.2, shard=1, event=ModeSwitch(at=0.0, new_mode="next")),
        OnShard(at=0.35, shard=0, event=Recover(at=0.0, target="private:1")),
    ),
    duration=0.9,
)

# A transaction is never shed (a participant that prepared must learn the
# decision), so it rides its sub-requests' backoff through a burst and lands
# in the calm after it, at up to ~300 ms; single-shard requests are served in
# ~40 ms or shed.  The objective sits where the transactions land.
_SURGE_SLO = SloSpec(percentile=0.99, bound=0.4, max_violation_fraction=0.0)

SURGE_SHARDED_ADMISSION_ON = replace(
    SHARDED_BASE,
    name="surge-sharded-admission-on",
    description="1M modeled users surging past two Lion shards' capacity over routed "
    "connections; both primaries shed single-shard requests with signed Busy rejects, "
    "transactions back off instead of being shed and stay atomic, and the SLO holds.",
    # 400 requests/s with bursts to 8,000 for a quarter second of every half.
    open_loop=OpenLoop(
        arrivals=partial(
            BurstyArrivals,
            base_rate=400.0,
            burst_rate=8_000.0,
            on_duration=0.25,
            off_duration=0.25,
        ),
        slo=_SURGE_SLO,
        warmup=0.25,
    ),
    admission=AdmissionPolicy(max_outstanding=32),
    batch_policy=BatchPolicy(max_batch=1, linger=0.0, pipeline_depth=1),
    workload=replace(SHARDED_BASE.workload, cross_shard_fraction=0.02),
    # A quarter second of warm-up, then calm, burst, calm: the run ends with
    # the burst's transactions decided rather than parked in backoff.
    duration=0.75,
    min_completed=0,
    check_interval=_SURGE_SLO.bin_width,
    # Far above the SLO bound: backpressure flows only through ``Busy`` rejects.
    client_timeout=30.0,
)


#: The sharded scenario library, in presentation order.
SHARDED_SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        SHARD_PRIMARY_CRASH,
        SHARD_ISOLATED_THEN_HEALS,
        MIXED_MODE_SHARDS,
        SHARD_BYZANTINE_BACKUP,
        SHARD_CRASH_RECOVER_WITH_MODE_SWITCH,
        SURGE_SHARDED_ADMISSION_ON,
    )
}


__all__ = ["SHARDED_BASE", "SHARDED_SCENARIOS"]
