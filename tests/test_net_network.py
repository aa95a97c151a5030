"""Unit tests for the network, node CPU accounting, and adverse conditions."""

import pytest

from repro.net import Network, NetworkConditions, Node, NodeCostModel, UniformLatencyModel
from repro.runtime.sim import SimRuntime
from repro.sim import Simulator


class RecordingNode(Node):
    """Test double that records every handled message."""

    def __init__(self, node_id, runtime, **kwargs):
        super().__init__(node_id, runtime, **kwargs)
        self.received = []

    def handle_message(self, src, payload):
        self.received.append((src, payload, self.now))


class SignedPayload:
    """Minimal payload advertising a signature and explicit wire size."""

    signed = True

    def __init__(self, body="x", size=128):
        self.body = body
        self._size = size

    def wire_size(self):
        return self._size


def build_network(seed=0, latency=None, conditions=None):
    sim = Simulator()
    network = Network(
        sim,
        latency_model=latency or UniformLatencyModel(base=0.001, jitter=0.0),
        conditions=conditions,
        seed=seed,
    )
    runtime = SimRuntime(sim, network)
    nodes = {}
    for name in ("a", "b", "c"):
        node = RecordingNode(name, runtime)
        network.register(node)
        nodes[name] = node
    return sim, network, nodes


class TestNetworkDelivery:
    def test_send_delivers_to_destination(self):
        sim, network, nodes = build_network()
        nodes["a"].send("b", "hello")
        sim.run()
        assert len(nodes["b"].received) == 1
        src, payload, _ = nodes["b"].received[0]
        assert src == "a"
        assert payload == "hello"

    def test_delivery_takes_latency_plus_cpu_time(self):
        sim, network, nodes = build_network()
        nodes["a"].send("b", "hello")
        sim.run()
        _, _, arrival_time = nodes["b"].received[0]
        assert arrival_time > 0.001  # at least the link latency

    def test_multicast_reaches_all_other_nodes(self):
        sim, network, nodes = build_network()
        nodes["a"].multicast(["a", "b", "c"], "ping")
        sim.run()
        assert len(nodes["b"].received) == 1
        assert len(nodes["c"].received) == 1
        assert len(nodes["a"].received) == 0  # no self-delivery

    def test_duplicate_node_registration_rejected(self):
        sim, network, nodes = build_network()
        with pytest.raises(ValueError):
            network.register(RecordingNode("a", nodes["b"].runtime))

    def test_unknown_destination_dropped(self):
        sim, network, nodes = build_network()
        nodes["a"].send("ghost", "hello")
        sim.run()
        assert network.messages_dropped == 1

    def test_stats_counts(self):
        sim, network, nodes = build_network()
        nodes["a"].send("b", "one")
        nodes["a"].send("c", "two")
        sim.run()
        stats = network.stats()
        assert stats["messages_offered"] == 2
        assert stats["messages_delivered"] == 2
        assert stats["messages_dropped"] == 0
        assert stats["by_type"]["str"] == 2

    def test_node_send_and_handle_counters(self):
        sim, network, nodes = build_network()
        nodes["a"].send("b", "one")
        sim.run()
        assert nodes["a"].messages_sent == 1
        assert nodes["b"].messages_handled == 1
        assert nodes["a"].bytes_sent > 0

    def test_crashed_node_does_not_send(self):
        sim, network, nodes = build_network()
        nodes["a"].crash()
        nodes["a"].send("b", "hello")
        sim.run()
        assert nodes["b"].received == []

    def test_crashed_node_does_not_receive(self):
        sim, network, nodes = build_network()
        nodes["b"].crash()
        nodes["a"].send("b", "hello")
        sim.run()
        assert nodes["b"].received == []

    def test_signed_payload_costs_more_cpu(self):
        sim1, _, nodes1 = build_network()
        nodes1["a"].send("b", SignedPayload())
        sim1.run()
        signed_arrival = nodes1["b"].received[0][2]

        sim2, _, nodes2 = build_network()
        nodes2["a"].send("b", "x" * 128)
        sim2.run()
        plain_arrival = nodes2["b"].received[0][2]
        assert signed_arrival > plain_arrival

    def test_determinism_same_seed_same_history(self):
        def run(seed):
            jittery = UniformLatencyModel(base=0.001, jitter=0.001)
            sim, network, nodes = build_network(seed=seed, latency=jittery)
            for i in range(10):
                nodes["a"].send("b", f"m{i}")
            sim.run()
            return [t for _, _, t in nodes["b"].received]

        assert run(3) == run(3)
        assert run(3) != run(4)


class TestNetworkConditions:
    def test_full_drop_probability_loses_message(self):
        conditions = NetworkConditions()
        conditions.set_drop_probability("a", "b", 1.0)
        sim, network, nodes = build_network(conditions=conditions)
        nodes["a"].send("b", "hello")
        sim.run()
        assert nodes["b"].received == []
        assert network.messages_dropped == 1

    def test_default_drop_probability_applies_to_all_links(self):
        conditions = NetworkConditions()
        conditions.set_default_drop_probability(1.0)
        sim, network, nodes = build_network(conditions=conditions)
        nodes["a"].send("b", "x")
        nodes["a"].send("c", "y")
        sim.run()
        assert network.messages_dropped == 2

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            NetworkConditions().set_drop_probability("a", "b", 1.5)

    def test_partition_blocks_cross_group_traffic(self):
        conditions = NetworkConditions()
        conditions.partition({"a"}, {"b", "c"})
        sim, network, nodes = build_network(conditions=conditions)
        nodes["a"].send("b", "blocked")
        nodes["b"].send("c", "allowed")
        sim.run()
        assert nodes["b"].received == []
        assert len(nodes["c"].received) == 1

    def test_heal_partition_restores_traffic(self):
        conditions = NetworkConditions()
        conditions.partition({"a"}, {"b"})
        conditions.heal_partition()
        sim, network, nodes = build_network(conditions=conditions)
        nodes["a"].send("b", "hello")
        sim.run()
        assert len(nodes["b"].received) == 1

    def test_unpartitioned_node_talks_to_everyone(self):
        conditions = NetworkConditions()
        conditions.partition({"a"}, {"b"})
        sim, network, nodes = build_network(conditions=conditions)
        nodes["c"].send("a", "hello")
        sim.run()
        assert len(nodes["a"].received) == 1

    def test_extra_delay_slows_link(self):
        conditions = NetworkConditions()
        conditions.set_extra_delay("a", "b", 0.5)
        sim, network, nodes = build_network(conditions=conditions)
        nodes["a"].send("b", "hello")
        sim.run()
        assert nodes["b"].received[0][2] > 0.5

    def test_negative_extra_delay_rejected(self):
        with pytest.raises(ValueError):
            NetworkConditions().set_extra_delay("a", "b", -0.1)

    def test_duplicate_link_delivers_twice(self):
        conditions = NetworkConditions()
        conditions.duplicate_link("a", "b")
        sim, network, nodes = build_network(conditions=conditions)
        nodes["a"].send("b", "hello")
        sim.run()
        assert len(nodes["b"].received) == 2

    def test_clear_extra_delays(self):
        conditions = NetworkConditions()
        conditions.set_extra_delay("a", "b", 0.5)
        conditions.clear_extra_delays()
        assert conditions.extra_delay("a", "b") == 0.0


class TestNodeCostModel:
    def test_receive_cost_grows_with_size(self):
        costs = NodeCostModel()
        assert costs.receive_cost(4096, signed=False) > costs.receive_cost(0, signed=False)

    def test_signed_receive_costs_more(self):
        costs = NodeCostModel()
        assert costs.receive_cost(100, signed=True) > costs.receive_cost(100, signed=False)

    def test_multiple_signatures_cost_more(self):
        costs = NodeCostModel()
        assert costs.receive_cost(100, True, verify_signatures=5) > costs.receive_cost(
            100, True, verify_signatures=1
        )

    def test_send_cost_signed_vs_unsigned(self):
        costs = NodeCostModel()
        assert costs.send_cost(100, signed=True) > costs.send_cost(100, signed=False)

    def test_transmission_delay_proportional_to_size(self):
        costs = NodeCostModel(bandwidth_bytes_per_second=1000.0)
        assert costs.transmission_delay(500) == pytest.approx(0.5)

    def test_zero_bandwidth_means_no_delay(self):
        costs = NodeCostModel(bandwidth_bytes_per_second=0.0)
        assert costs.transmission_delay(500) == 0.0
