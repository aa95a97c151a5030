"""One deployment: a single cluster is the one-group case.

``build_seemore`` and ``build_sharded_seemore`` return the same
:class:`~repro.cluster.deployment.Deployment` over typed
:class:`~repro.cluster.wiring.Group` records, so everything above them is
written once: the runners, the scenario engine, the fault helpers, the
adaptive controller and the four standard checkers.  These tests pin that,
the two corners of ``Scenario`` that used to raise (``modes`` beside
``admission`` / ``open_loop``), and that a schedule which cannot run on the
built deployment is refused with one error type before the clock starts.
"""

from dataclasses import fields, replace
from functools import partial

import pytest

from repro.adaptive import AdaptiveModeController, AdaptivePolicy
from repro.cluster import (
    Deployment,
    Group,
    ShardSpec,
    build_pbft,
    build_seemore,
    build_sharded_seemore,
    run_deployment,
)
from repro.core import AdmissionPolicy, Mode
from repro.faults import crash_primary, make_byzantine
from repro.scenarios import (
    SHARDED_BASE,
    SHARDED_SCENARIOS,
    ClientSurge,
    CommittedPrefixAgreement,
    Crash,
    IsolateShard,
    ModeIs,
    ModeSwitch,
    NoForgedReplies,
    OnShard,
    Scenario,
    ShardExpects,
    ViewAdvanced,
    default_checkers,
    run_scenario,
)
from repro.scenarios.engine import OpenLoop
from repro.shard import ShardedClient
from repro.smr.client import Client
from repro.smr.ledger import LedgerEntry
from repro.workload import ClientPool, ClientPopulation, PoissonArrivals
from repro.workload.openloop import OpenLoopConnection

pytestmark = pytest.mark.integration

PROBE = replace(SHARDED_BASE, name="probe", duration=0.3)
SINGLE = Scenario(name="single", description="one group", duration=0.3)


def one_shard(num_clients=1):
    return build_sharded_seemore(num_shards=1, num_clients=num_clients)


def poisson(deployment, **knobs):
    population = ClientPopulation(num_users=100, arrivals=PoissonArrivals(rate=300.0, seed=2))
    return deployment.client_pool.spawn_open_loop(population, connections=4, window=2, **knobs)


@pytest.mark.shard
class TestOneTypeOnePath:
    def test_every_builder_returns_the_one_deployment_over_groups(self):
        single, sharded, baseline = build_seemore(), build_sharded_seemore(), build_pbft()
        assert type(single) is type(sharded) is type(baseline) is Deployment
        for deployment, count in ((single, 1), (sharded, 2), (baseline, 1)):
            assert len(deployment.shards) == count
            assert all(type(group) is Group for group in deployment.shards)
            assert [group.index for group in deployment.shards] == list(range(count))
            assert type(deployment.client_pool) is ClientPool
        assert (single.group().mode, baseline.group().mode) == (Mode.LION, None)

    def test_one_routed_shard_differs_from_a_single_cluster_in_ids_namespace_and_router(self):
        single, routed = build_seemore(), one_shard()
        assert [field.name for field in fields(single)] == [field.name for field in fields(routed)]
        assert (single.router, single.partitioner) == (None, None)
        assert routed.router is not None and routed.partitioner is routed.router.partitioner
        assert [f"s0-{replica_id}" for replica_id in single.replicas] == list(routed.replicas)
        assert (single.group().label, routed.group().label) == ("seemore-lion", "seemore-lion-s0")
        assert (single.protocol, routed.protocol) == ("seemore-lion", "seemore-sharded-1x")
        # Same client names, different key material: the namespace is part of the seed.
        assert [c.node_id for c in single.clients] == [c.node_id for c in routed.clients]
        assert (single.keystore._seed, routed.keystore._seed) == ("seemore-0", "seemore-sharded-0")
        # Unrouted, the one group records straight into the deployment's collector.
        assert single.group().metrics is single.metrics
        assert routed.group().metrics is not routed.metrics
        assert (type(single.clients[0]), type(routed.clients[0])) == (Client, ShardedClient)

    def test_the_only_group_is_named_only_when_there_is_one(self):
        single, sharded = build_seemore(), build_sharded_seemore()
        assert single.group() is single.group(0) is single.shards[0]
        assert sharded.group(1) is sharded.shards[1]
        with pytest.raises(ValueError, match="has 2 groups; name one"):
            sharded.group()
        for deployment, index in ((single, 1), (sharded, 2), (sharded, -1)):
            with pytest.raises(ValueError, match=f"there is no shard {index}"):
                deployment.group(index)

    def test_a_replica_is_marked_faulty_with_the_group_that_owns_it(self):
        deployment = build_sharded_seemore()
        victim = deployment.shards[1].config.public_replicas[0]
        deployment.mark_faulty(victim)
        assert deployment.faulty_replicas == deployment.shards[1].faulty_replicas == {victim}
        assert deployment.shards[0].faulty_replicas == set()
        assert deployment.replica(victim) not in deployment.correct_replicas()
        with pytest.raises(KeyError, match="ghost"):
            deployment.mark_faulty("ghost")

    @pytest.mark.parametrize("build", [build_seemore, one_shard], ids=["single", "routed"])
    def test_runners_helpers_and_controller_take_either(self, build):
        deployment = build()
        group = deployment.group()
        result = run_deployment(deployment, duration=0.1, warmup=0.02)
        assert result.completed > 0
        # The sharded sections are filled exactly when the clients are routed.
        routed = deployment.router is not None
        assert (result.per_shard is not None) == (result.transactions is not None) == routed

        controller = AdaptiveModeController(group, deployment, policy=AdaptivePolicy())
        assert controller.current_mode() is Mode.LION and controller.poll() is None

        make_byzantine(group, group.config.public_replicas[-1], "silent")
        crashed = crash_primary(group)
        assert crashed == group.config.private_replicas[0]
        assert deployment.faulty_replicas == {crashed, group.config.public_replicas[-1]}
        deployment.start_clients()
        deployment.run(0.4)
        assert max(replica.view for replica in group.correct_replicas()) >= 1
        deployment.assert_safe()

    @pytest.mark.openloop
    @pytest.mark.parametrize("build", [build_seemore, one_shard], ids=["single", "routed"])
    def test_the_open_loop_runner_takes_either(self, build):
        deployment = build(num_clients=0)
        result = run_deployment(deployment, duration=0.3, warmup=0.05, driver=poisson(deployment))
        assert result.served > 0 and result.offered > 0
        assert all(isinstance(client, OpenLoopConnection) for client in deployment.clients)
        assert (result.transactions is not None) == (deployment.router is not None)

    @pytest.mark.parametrize("build", [build_seemore, one_shard], ids=["single", "routed"])
    def test_the_engine_takes_either_and_shard_wrappers_work_on_one_group(self, build):
        scenario = replace(
            SINGLE,
            events=(
                OnShard(at=0.05, shard=0, event=ModeSwitch(at=0.0, new_mode="next")),
                IsolateShard(at=0.25, shard=0),
            ),
            expectations=(ShardExpects(0, ModeIs(steps=1)), ViewAdvanced(1)),
        )
        result = run_scenario(scenario, deployment=build(num_clients=2), checkers=default_checkers())
        result.assert_ok()
        assert result.events_applied == [(0.05, "s0:mode-switch(next)"), (0.25, "isolate-shard(0)")]
        assert (result.mode, result.final_modes) == ("lion", ("DOG",))


@pytest.mark.shard
class TestUnrunnableScenariosAreRefused:
    """Five schedules that died inside (or after) the run at the parent commit."""

    CASES = {
        # parent: KeyError 'config' at t = 0.1, inside the simulator
        "unwrapped-group-event": (PROBE, Crash(at=0.1), r"crash\(primary\).*has 2 groups"),
        # parent: RuntimeError from the shadow pool's spawn, inside the simulator
        "unrouted-surge": (
            PROBE,
            OnShard(at=0.1, shard=0, event=ClientSurge(at=0.0)),
            r"s0:client-surge\(\+2\).*acts on no one replica group",
        ),
        # parent: AttributeError, 'Deployment' object has no attribute 'shards'
        "shard-of-a-single-cluster": (
            SINGLE,
            OnShard(at=0.1, shard=1, event=Crash(at=0.0)),
            r"s1:crash\(primary\).*there is no shard 1",
        ),
        # parent: a bare IndexError
        "shard-out-of-range": (
            PROBE,
            OnShard(at=0.1, shard=5, event=Crash(at=0.0)),
            r"s5:crash\(primary\).*there is no shard 5",
        ),
        # parent: a bare IndexError
        "role-out-of-range": (
            PROBE,
            OnShard(at=0.1, shard=1, event=Crash(at=0.0, target="public:99")),
            r"s1:crash\(public:99\).*has 4 public replicas",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_the_scenario_is_a_value_error_before_the_clock_starts(self, case):
        scenario, event, message = self.CASES[case]
        deployment = scenario.build()
        with pytest.raises(ValueError, match=message):
            run_scenario(replace(scenario, events=(event,)), deployment=deployment)
        simulator = deployment.simulator
        assert (simulator.now, simulator.events_processed, simulator.pending_events) == (0.0, 0, 0)
        assert deployment.metrics.completed == 0

    def test_isolate_and_expectation_indices_and_cloudless_roles_too(self):
        for scenario, message in (
            (replace(PROBE, events=(IsolateShard(at=0.1, shard=2),)), r"isolate-shard\(2\)"),
            (replace(PROBE, expectations=(ShardExpects(3, ViewAdvanced(1)),)), "ShardExpects"),
        ):
            with pytest.raises(ValueError, match=message + ".*there is no shard"):
                run_scenario(scenario)
        baseline = build_pbft(num_clients=1)
        for event in (Crash(at=0.1, target="private:0"), ModeSwitch(at=0.1)):
            with pytest.raises(ValueError, match="places no replicas in a private cloud"):
                run_scenario(replace(SINGLE, events=(event,)), deployment=baseline)
        assert baseline.simulator.events_processed == 0


@pytest.mark.shard
class TestDefaultCheckersOnSeveralGroups:
    def test_the_standard_four_judge_a_sharded_run(self):
        checkers = default_checkers()
        deployment = PROBE.build()
        result = run_scenario(PROBE, checkers=checkers, deployment=deployment)
        result.assert_ok()
        # Both shards committed slot 1, each its own request: not a fork.
        first, second = (group.correct_ledgers()[0].digest_at(1) for group in deployment.shards)
        assert first and second and first != second

    @pytest.mark.parametrize(
        "checkers", [default_checkers, PROBE.default_checkers], ids=["default", "scenario"]
    )
    def test_every_attached_no_forged_replies_saw_every_accepted_reply(self, checkers):
        attached = checkers()
        deployment = PROBE.build()
        run_scenario(PROBE, checkers=attached, deployment=deployment).assert_ok()
        accepted = sum(c._next_timestamp - c.outstanding_count for c in deployment.clients)
        watchers = [checker for checker in attached if isinstance(checker, NoForgedReplies)]
        assert len(watchers) == 1 and accepted > 100
        assert [sum(map(len, watcher._accepted.values())) for watcher in watchers] == [accepted]

    def test_a_fork_inside_one_shard_is_reported_once_and_names_the_shard(self):
        deployment = PROBE.build()
        checker = CommittedPrefixAgreement()
        left, right = deployment.shards[1].correct_replicas()[:2]
        left.ledger.record(LedgerEntry(9_000, "aa" * 32, 0, "planted", 1))
        right.ledger.record(LedgerEntry(9_000, "bb" * 32, 0, "planted", 1))
        # The same sequence on the other shard, with a third digest, is no conflict.
        deployment.shards[0].correct_replicas()[0].ledger.record(
            LedgerEntry(9_000, "cc" * 32, 0, "planted", 1)
        )
        assert len(checker.check(deployment)) == 1
        (violation,) = checker.finalize(deployment)
        assert violation.startswith("shard 1: sequence 9000: ")
        assert left.node_id in violation and right.node_id in violation
        result = run_scenario(PROBE, checkers=default_checkers(), deployment=deployment)
        assert result.invariant_violations == {"committed-prefix-agreement": [violation]}
        with pytest.raises(AssertionError, match="safety violated"):
            deployment.assert_safe()


@pytest.mark.shard
@pytest.mark.openloop
class TestTheTwoCornersRun:
    """``Scenario(modes=...)`` beside ``admission`` and beside ``open_loop``."""

    SECTION = OpenLoop(
        arrivals=partial(PoissonArrivals, rate=300.0), connections=4, window=2, warmup=0.05
    )

    def test_admission_sits_on_every_groups_spec(self):
        policy = AdmissionPolicy(max_outstanding=8)
        assert ShardSpec(admission=policy).admission is policy
        deployment = replace(PROBE, admission=policy, modes=(Mode.LION, Mode.DOG)).build()
        assert [group.config.admission for group in deployment.shards] == [policy, policy]
        run_scenario(replace(PROBE, admission=policy), deployment=deployment).assert_ok()

    def test_an_open_loop_section_spawns_routed_connections_from_the_one_pool(self):
        scenario = replace(PROBE, open_loop=self.SECTION, min_completed=20)
        deployment = scenario.build()
        assert deployment.clients == []  # the engine spawns the connections
        result = run_scenario(scenario, deployment=deployment)
        result.assert_ok()
        assert len(deployment.clients) == 4
        for connection in deployment.clients:
            assert isinstance(connection, (OpenLoopConnection, ShardedClient))
            assert connection.router is deployment.router
        measured = result.measured
        assert measured.served > 20 and measured.transactions["committed"] >= 1
        assert sum(shard.completed for shard in measured.per_shard) > 0
        assert result.transactions["committed"] >= 1 and all(result.per_shard_completed)

    def test_the_library_surge_sheds_single_shard_requests_and_commits_transactions(self):
        scenario = SHARDED_SCENARIOS["surge-sharded-admission-on"]
        assert scenario.open_loop is not None and scenario.admission is not None
        assert [type(checker).name for checker in scenario.default_checkers()] == [
            "sla-violation",
            "cross-shard-atomicity",
        ]
        deployment = scenario.build()
        result = run_scenario(scenario, deployment=deployment)
        result.assert_ok()
        assert result.measured.shed > 100 and result.measured.slo_holds
        assert result.transactions["committed"] >= 1
        assert sum(c.shed_requests for c in deployment.clients) >= result.measured.shed
        # Every shed request gave its logical slot back and every transaction
        # was decided: the run drained, nothing is wedged.
        assert all(c._logical_outstanding == c.outstanding_count == 0 for c in deployment.clients)
        assert sum(result.transactions.values()) == 2 * result.transactions["started"]
