"""Unit tests for deployment builders and the experiment runners."""

import pytest

from repro.cluster import (
    build_paxos,
    build_pbft,
    build_seemore,
    build_upright,
    run_deployment,
    sweep_clients,
)
from repro.cluster.runner import peak_throughput
from repro.core import Mode
from repro.net.topology import Cloud
from repro.scenarios import Crash, Scenario, run_scenario


class TestBuilders:
    def test_seemore_layout_matches_paper(self):
        deployment = build_seemore(crash_tolerance=2, byzantine_tolerance=2, num_clients=1)
        config = deployment.group().config
        assert config.private_size == 4          # 2c
        assert config.public_size == 7           # 3m+1
        assert len(deployment.replicas) == 11    # 3m+2c+1
        assert deployment.placement.nodes_in(Cloud.PRIVATE) == list(config.private_replicas)
        assert set(deployment.placement.nodes_in(Cloud.PUBLIC)) == set(config.public_replicas)

    def test_baseline_sizes(self):
        assert len(build_paxos(crash_tolerance=1, byzantine_tolerance=1).replicas) == 5
        assert len(build_pbft(crash_tolerance=1, byzantine_tolerance=1).replicas) == 7
        assert len(build_upright(crash_tolerance=1, byzantine_tolerance=1).replicas) == 6
        assert len(build_upright(crash_tolerance=3, byzantine_tolerance=1).replicas) == 10
        assert len(build_upright(crash_tolerance=1, byzantine_tolerance=3).replicas) == 12

    def test_clients_are_registered_and_placed(self):
        deployment = build_seemore(num_clients=3)
        assert len(deployment.clients) == 3
        for client in deployment.clients:
            assert deployment.placement.cloud_of(client.node_id) is Cloud.CLIENT
            assert deployment.network.knows(client.node_id)

    def test_protocol_names(self):
        assert build_seemore(mode=Mode.DOG).protocol == "seemore-dog"
        assert build_paxos().protocol == "cft"
        assert build_pbft().protocol == "bft"
        assert build_upright().protocol == "s-upright"

    def test_cross_cloud_latency_is_configurable(self):
        deployment = build_seemore(cross_cloud_latency=0.05)
        latency_model = deployment.network.latency_model
        assert latency_model.cross_cloud == 0.05
        assert latency_model.intra_cloud != 0.05


class TestRunDeployment:
    def test_run_produces_metrics(self):
        deployment = build_seemore(num_clients=2, seed=3)
        result = run_deployment(deployment, duration=0.4, warmup=0.1)
        assert result.completed > 0
        assert result.throughput > 0
        assert result.latency.mean > 0
        assert result.duration == pytest.approx(0.4, rel=0.01)

    def test_run_result_row_has_paper_units(self):
        deployment = build_seemore(num_clients=2, seed=3)
        result = run_deployment(deployment, duration=0.3, warmup=0.05)
        row = result.as_row()
        assert row["throughput_kreqs_per_s"] == pytest.approx(result.throughput / 1000, rel=0.01)
        assert row["mean_latency_ms"] == pytest.approx(result.latency.mean * 1000, rel=0.01)

    def test_invalid_duration_rejected(self):
        deployment = build_seemore(num_clients=1)
        with pytest.raises(ValueError):
            run_deployment(deployment, duration=0.0)

    def test_negative_warmup_rejected_before_any_client_starts(self):
        deployment = build_seemore(num_clients=1)
        with pytest.raises(ValueError, match="warmup"):
            run_deployment(deployment, duration=0.1, warmup=-0.1)
        assert deployment.network.messages_offered == 0
        assert deployment.runtime.now == 0.0

    @pytest.mark.slow
    def test_more_clients_more_throughput_until_saturation(self):
        results = sweep_clients(
            build_seemore,
            client_counts=[1, 8],
            duration=0.4,
            warmup=0.1,
            crash_tolerance=1,
            byzantine_tolerance=1,
            mode=Mode.LION,
            seed=5,
        )
        assert results[1].throughput > results[0].throughput
        assert peak_throughput(results) == max(r.throughput for r in results)

    def test_sweep_returns_one_result_per_count(self):
        results = sweep_clients(
            build_paxos, client_counts=[1, 2, 4], duration=0.2, warmup=0.05, seed=2
        )
        assert [r.clients for r in results] == [1, 2, 4]


class TestTimelineOfAScenario:
    """Figure 4's shape: a schedule on the engine, then the metrics' timeline."""

    def test_timeline_has_expected_bins(self):
        deployment = build_seemore(num_clients=2, seed=4)
        steady = Scenario("steady", "no faults", duration=0.3, settle=0.0)
        run_scenario(steady, deployment=deployment)
        bins = deployment.metrics.timeline(bin_width=0.05, start=0.0, end=0.3)
        assert len(bins) == 6
        assert any(rate > 0 for _, rate in bins)

    def test_the_crash_is_applied(self):
        deployment = build_seemore(num_clients=2, seed=4, client_timeout=0.1)
        config = deployment.group().config
        scenario = Scenario(
            "crash", "primary crashes", events=(Crash(at=0.1),), duration=0.8, settle=0.0
        )
        run_scenario(scenario, deployment=deployment).assert_ok()
        bins = deployment.metrics.timeline(bin_width=0.05, start=0.0, end=0.8)
        primary = deployment.replicas[config.primary_of_view(0, Mode.LION)]
        assert primary.crashed
        # Throughput dips around the crash and recovers afterwards.
        after = [rate for start, rate in bins if start >= 0.4]
        assert max(after) > 0
