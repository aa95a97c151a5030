"""Integration tests: every protocol processes client requests end to end.

These tests stand up complete deployments (replicas + network + closed-loop
clients) with no failures and check:

* liveness — clients complete requests;
* safety — all correct replicas commit the same requests in the same order;
* convergence — replicated state machines reach the same state;
* role behaviour — only the expected replicas reply to clients.
"""

import pytest

from repro.cluster import (
    build_paxos,
    build_pbft,
    build_seemore,
    build_upright,
    builder_for,
    run_deployment,
)
from repro.core import Mode
from repro.smr.ledger import assert_ledgers_consistent
from repro.workload import Workload, WorkloadSpec

pytestmark = pytest.mark.integration

RUN_KWARGS = dict(duration=0.5, warmup=0.1)


def run_small(builder, **kwargs):
    deployment = builder(
        crash_tolerance=1,
        byzantine_tolerance=1,
        num_clients=kwargs.pop("num_clients", 3),
        workload=kwargs.pop("workload", Workload.build("0/0")),
        seed=kwargs.pop("seed", 1),
        **kwargs,
    )
    result = run_deployment(deployment, **RUN_KWARGS)
    return deployment, result


@pytest.fixture(scope="module")
def shared_run():
    """``run_small`` once per argument set, for the tests that only read the run.

    The simulator is deterministic, so a second identical run would only
    repeat the first.
    """
    runs = {}

    def run(builder, **kwargs):
        key = (builder, tuple(sorted(kwargs.items())))
        if key not in runs:
            runs[key] = run_small(builder, **kwargs)
        return runs[key]

    return run


class TestSeeMoReModes:
    @pytest.mark.parametrize("mode", [Mode.LION, Mode.DOG, Mode.PEACOCK])
    def test_mode_completes_requests_safely(self, mode, shared_run):
        deployment, result = shared_run(build_seemore, mode=mode)
        assert result.completed > 50, f"{mode.name} should make steady progress"
        assert_ledgers_consistent(deployment.group().correct_ledgers())

    @pytest.mark.slow
    @pytest.mark.parametrize("mode", [Mode.LION, Mode.DOG, Mode.PEACOCK])
    def test_replicas_converge_on_committed_prefix(self, mode, shared_run):
        deployment, _ = shared_run(build_seemore, mode=mode)
        executed = [replica.last_executed for replica in deployment.correct_replicas()]
        assert max(executed) > 0
        # Every replica that executed anything agrees with the others on the
        # committed prefix; allow stragglers that are still catching up.
        ledgers = deployment.group().correct_ledgers()
        assert_ledgers_consistent(ledgers)

    def test_lion_only_primary_replies(self, shared_run):
        deployment, _ = shared_run(build_seemore, mode=Mode.LION)
        config = deployment.group().config
        primary = config.primary_of_view(0, Mode.LION)
        for replica_id, replica in deployment.replicas.items():
            if replica_id == primary:
                assert replica.replies_sent > 0
            else:
                assert replica.replies_sent == 0

    @pytest.mark.slow
    def test_dog_private_cloud_stays_passive(self, shared_run):
        deployment, _ = shared_run(build_seemore, mode=Mode.DOG)
        config = deployment.group().config
        primary = config.primary_of_view(0, Mode.DOG)
        # Private replicas other than the primary neither reply nor vote,
        # but they still learn and execute every request via informs.
        for replica_id in config.private_replicas:
            replica = deployment.replicas[replica_id]
            assert replica.replies_sent == 0
            if replica_id != primary:
                assert replica.last_executed > 0

    @pytest.mark.slow
    def test_peacock_private_cloud_not_in_agreement(self, shared_run):
        deployment, _ = shared_run(build_seemore, mode=Mode.PEACOCK)
        config = deployment.group().config
        for replica_id in config.private_replicas:
            replica = deployment.replicas[replica_id]
            assert replica.replies_sent == 0
            assert replica.last_executed > 0  # informed of results

    @pytest.mark.slow
    def test_proxies_reply_in_dog_mode(self, shared_run):
        deployment, _ = shared_run(build_seemore, mode=Mode.DOG)
        config = deployment.group().config
        proxies = config.proxies_of_view(0, Mode.DOG)
        assert any(deployment.replicas[p].replies_sent > 0 for p in proxies)

    def test_kv_workload_converges(self):
        deployment, result = run_small(
            build_seemore,
            mode=Mode.LION,
            workload=Workload.build(WorkloadSpec(kind="kv", seed=3)),
            num_clients=2,
        )
        assert result.completed > 20
        snapshots = [
            replica.executor.state_machine.snapshot()
            for replica in deployment.correct_replicas()
            if replica.last_executed >= result.completed - 5
        ]
        assert snapshots, "at least one replica should be fully caught up"
        # Replicas that executed the full prefix hold identical KV state.
        fully_caught_up = [
            replica.executor.state_machine.snapshot()
            for replica in deployment.correct_replicas()
            if replica.last_executed == max(r.last_executed for r in deployment.correct_replicas())
        ]
        assert all(snapshot == fully_caught_up[0] for snapshot in fully_caught_up)


class TestBaselines:
    @pytest.mark.slow
    def test_paxos_completes_requests(self, shared_run):
        deployment, result = shared_run(build_paxos)
        assert result.completed > 50

    @pytest.mark.slow
    def test_pbft_completes_requests(self, shared_run):
        deployment, result = shared_run(build_pbft)
        assert result.completed > 50

    @pytest.mark.slow
    def test_upright_completes_requests(self, shared_run):
        deployment, result = shared_run(build_upright)
        assert result.completed > 50

    @pytest.mark.slow
    def test_paxos_only_leader_replies(self, shared_run):
        deployment, _ = shared_run(build_paxos)
        config = deployment.group().config
        leader = config.primary_of_view(0)
        for replica_id, replica in deployment.replicas.items():
            if replica_id == leader:
                assert replica.replies_sent > 0
            else:
                assert replica.replies_sent == 0

    @pytest.mark.slow
    def test_pbft_all_replicas_reply(self, shared_run):
        deployment, _ = shared_run(build_pbft)
        assert all(replica.replies_sent > 0 for replica in deployment.replicas.values())

    def test_network_sizes_match_paper_for_f2(self):
        # Figure 2(a): f=2 (c=1, m=1): SeeMoRe/S-UpRight 6, CFT 5, BFT 7.
        seemore = build_seemore(crash_tolerance=1, byzantine_tolerance=1)
        upright = build_upright(crash_tolerance=1, byzantine_tolerance=1)
        cft = build_paxos(crash_tolerance=1, byzantine_tolerance=1)
        bft = build_pbft(crash_tolerance=1, byzantine_tolerance=1)
        assert len(seemore.replicas) == 6
        assert len(upright.replicas) == 6
        assert len(cft.replicas) == 5
        assert len(bft.replicas) == 7


class TestBuilderRegistry:
    def test_builder_for_known_protocols(self):
        for name in ("seemore-lion", "seemore-dog", "seemore-peacock", "cft", "bft", "s-upright"):
            deployment = builder_for(name)(crash_tolerance=1, byzantine_tolerance=1, num_clients=1)
            assert deployment.protocol in (name, "cft", "bft", "s-upright") or name.startswith(
                deployment.protocol
            )

    def test_builder_for_unknown_protocol(self):
        with pytest.raises(KeyError):
            builder_for("raft")


@pytest.mark.slow
class TestThroughputOrdering:
    """Coarse performance-shape checks used by the paper's comparisons."""

    def test_lion_latency_close_to_cft_and_below_bft(self):
        _, lion = run_small(build_seemore, mode=Mode.LION, num_clients=4)
        _, cft = run_small(build_paxos, num_clients=4)
        _, bft = run_small(build_pbft, num_clients=4)
        assert lion.latency.mean < bft.latency.mean
        assert lion.latency.mean < 3.0 * cft.latency.mean

    def test_all_protocols_have_reasonable_latency(self):
        for builder in (build_paxos, build_pbft, build_upright):
            _, result = run_small(builder, num_clients=2)
            assert result.latency.mean < 0.05  # well under the client timeout
