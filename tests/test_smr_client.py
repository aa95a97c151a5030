"""Unit tests for the closed-loop client (reply quorums, retransmission)."""

from repro.crypto import KeyStore
from repro.net import Network, Node, UniformLatencyModel
from repro.runtime.sim import SimRuntime
from repro.sim import Simulator
from repro.smr.client import Client, ClientConfig, ReplyRule
from repro.smr.messages import Reply, Request
from repro.smr.state_machine import Operation
from repro.workload import MetricsCollector


class ScriptedReplica(Node):
    """A fake replica that replies according to a small script."""

    def __init__(self, node_id, runtime, signer, respond=True, result=None, delay=0.0):
        super().__init__(node_id, runtime)
        self.signer = signer
        self.respond = respond
        self.result = result if result is not None else {"ok": True}
        self.delay = delay
        self.requests_seen = 0

    def handle_message(self, src, payload):
        if not isinstance(payload, Request) or not self.respond:
            return
        self.requests_seen += 1
        reply = Reply(
            mode=1,
            view=0,
            timestamp=payload.timestamp,
            client_id=payload.client_id,
            replica_id=self.node_id,
            result=self.result,
        )
        reply.sign(self.signer)
        if self.delay:
            self.runtime.call_later(self.delay, lambda: self.send(src, reply))
        else:
            self.send(src, reply)


def build_harness(replica_specs, replies_needed=1, trusted=frozenset(), timeout=0.05,
                  retransmit_replies_needed=None, window=1):
    simulator = Simulator()
    network = Network(simulator, latency_model=UniformLatencyModel(base=0.001, jitter=0.0))
    runtime = SimRuntime(simulator, network)
    keystore = KeyStore()
    replica_ids = [spec["id"] for spec in replica_specs]
    for replica_id in replica_ids:
        keystore.register(replica_id)
    keystore.register("client-0")

    replicas = {}
    for spec in replica_specs:
        replica = ScriptedReplica(
            spec["id"],
            runtime,
            keystore.signer_for(spec["id"]),
            respond=spec.get("respond", True),
            result=spec.get("result"),
            delay=spec.get("delay", 0.0),
        )
        network.register(replica)
        replicas[spec["id"]] = replica

    if retransmit_replies_needed is None:
        retransmit_replies_needed = replies_needed
    config = ClientConfig(
        request_targets=lambda view, mode: [replica_ids[0]],
        rules={0: ReplyRule(trusted, replies_needed, retransmit_replies_needed)},
        members=frozenset(replica_ids),
        retransmit_targets=lambda view, mode: replica_ids,
        request_timeout=timeout,
    )
    metrics = MetricsCollector()
    client = Client(
        node_id="client-0",
        runtime=runtime,
        signer=keystore.signer_for("client-0"),
        verifier=keystore.verifier(),
        config=config,
        operation_factory=lambda ts: Operation("noop"),
        recorder=metrics,
        max_requests=3,
        window=window,
    )
    network.register(client)
    return simulator, client, replicas, metrics


class TestClientHappyPath:
    def test_completes_requests_with_single_reply(self):
        sim, client, replicas, metrics = build_harness([{"id": "r0"}])
        client.start()
        sim.run(until=1.0)
        assert client.completed_count == 3
        assert metrics.completed == 3
        assert client.timeouts == 0

    def test_latency_recorded_per_request(self):
        sim, client, _, metrics = build_harness([{"id": "r0"}])
        client.start()
        sim.run(until=1.0)
        for record in metrics.records:
            assert record.latency > 0

    def test_quorum_of_matching_replies_required(self):
        # Two replicas reply but three matching replies are required: the
        # client keeps retransmitting and never completes.
        sim, client, _, _ = build_harness(
            [{"id": "r0"}, {"id": "r1"}], replies_needed=3, retransmit_replies_needed=3
        )
        client.start()
        sim.run(until=0.5)
        assert client.completed_count == 0
        assert client.timeouts > 0

    def test_mismatched_results_do_not_count_together(self):
        sim, client, _, _ = build_harness(
            [
                {"id": "r0", "result": {"ok": True, "value": 1}},
                {"id": "r1", "result": {"ok": True, "value": 2}},
            ],
            replies_needed=2,
            retransmit_replies_needed=2,
        )
        client.start()
        sim.run(until=0.5)
        assert client.completed_count == 0

    def test_trusted_reply_accepted_alone(self):
        sim, client, _, _ = build_harness(
            [{"id": "r0"}, {"id": "r1"}], replies_needed=2, trusted=frozenset({"r0"})
        )
        client.start()
        sim.run(until=1.0)
        assert client.completed_count == 3


class TestClientRetransmission:
    def test_timeout_triggers_retransmission_to_all(self):
        # Primary r0 never responds; r1 and r2 respond only after the client
        # broadcasts (they are not the initial target).
        sim, client, replicas, _ = build_harness(
            [{"id": "r0", "respond": False}, {"id": "r1"}, {"id": "r2"}],
            replies_needed=1,
            retransmit_replies_needed=1,
            timeout=0.02,
        )
        client.start()
        sim.run(until=1.0)
        assert client.timeouts > 0
        assert client.completed_count == 3
        assert replicas["r1"].requests_seen > 0

    def test_stop_prevents_further_requests(self):
        sim, client, _, _ = build_harness([{"id": "r0"}])
        client.start()
        sim.run(until=0.01)
        client.stop()
        completed_at_stop = client.completed_count
        sim.run(until=1.0)
        assert client.completed_count <= completed_at_stop + 1

    def test_max_requests_limits_the_loop(self):
        sim, client, _, _ = build_harness([{"id": "r0"}])
        client.start()
        sim.run(until=5.0)
        assert client.completed_count == 3


class TestClientValidation:
    def test_reply_with_bad_signature_ignored(self):
        sim, client, replicas, _ = build_harness([{"id": "r0"}, {"id": "r1"}], replies_needed=2)
        # r1 signs with its own key but claims results of r0: craft manually.
        original_handle = replicas["r1"].handle_message

        def forge(src, payload):
            if isinstance(payload, Request):
                reply = Reply(
                    mode=1,
                    view=0,
                    timestamp=payload.timestamp,
                    client_id=payload.client_id,
                    replica_id="r0",  # claims to be r0
                    result={"ok": True},
                )
                reply.sign(replicas["r1"].signer)  # but signs as r1
                replicas["r1"].send(src, reply)
                return
            original_handle(src, payload)

        replicas["r1"].handle_message = forge
        client.start()
        sim.run(until=0.3)
        # The forged reply never counts, so the quorum of 2 is never reached.
        assert client.completed_count == 0

    def test_stale_reply_for_old_timestamp_ignored(self):
        sim, client, replicas, _ = build_harness([{"id": "r0"}])
        client.start()
        sim.run(until=1.0)
        # Inject a stale reply after everything finished: must not crash or
        # add completions.
        stale = Reply(1, 0, 1, "client-0", "r0", {"ok": True})
        stale.sign(replicas["r0"].signer)
        completed = client.completed_count
        client.handle_message("r0", stale)
        assert client.completed_count == completed

    def test_client_tracks_view_and_mode_from_replies(self):
        sim, client, replicas, _ = build_harness([{"id": "r0"}])

        def reply_in_view_3(src, payload):
            if isinstance(payload, Request):
                reply = Reply(
                    mode=2,
                    view=3,
                    timestamp=payload.timestamp,
                    client_id=payload.client_id,
                    replica_id="r0",
                    result={"ok": True},
                )
                reply.sign(replicas["r0"].signer)
                replicas["r0"].send(src, reply)

        replicas["r0"].handle_message = reply_in_view_3
        client.start()
        sim.run(until=0.5)
        (session,) = client.sessions
        assert session.known_view == 3
        assert session.known_mode == 2


class TestGroupedReplies:
    """One reply answers every request of its client that executed in one slot."""

    @staticmethod
    def silent_harness(**kwargs):
        """Three requests pending on silent replicas r0 / r1; replies are handed in."""
        specs = [{"id": "r0", "respond": False}, {"id": "r1", "respond": False}]
        sim, client, replicas, metrics = build_harness(specs, window=3, **kwargs)
        client.start()
        assert sorted(client._pending) == [1, 2, 3]
        return client, replicas

    @staticmethod
    def grouped(replica, timestamps, client_id="client-0", replica_id=None, result=None):
        result = result if result is not None else {"ok": True}
        first, *rest = timestamps
        reply = Reply(
            mode=0,
            view=0,
            timestamp=first,
            client_id=client_id,
            replica_id=replica_id or replica.node_id,
            result=result,
            more=tuple((timestamp, result) for timestamp in rest),
        )
        return reply.sign(replica.signer)

    def test_one_replicas_grouped_reply_is_one_vote_per_entry(self):
        client, replicas = self.silent_harness(replies_needed=2)
        client.handle_message("r0", self.grouped(replicas["r0"], [1, 2, 3]))
        assert client.completed_count == 0
        for timestamp in (1, 2, 3):
            assert [set(voters) for voters in client._pending[timestamp].votes.values()] == [
                {"r0"}
            ]
        client.handle_message("r1", self.grouped(replicas["r1"], [3, 1, 2]))
        assert client.completed_count == 3
        assert sorted(record.timestamp for record in client.completed) == [1, 2, 3]

    def test_an_entry_for_a_timestamp_not_pending_is_ignored(self):
        client, replicas = self.silent_harness()
        client.handle_message("r0", self.grouped(replicas["r0"], [2, 99]))
        assert [record.timestamp for record in client.completed] == [2]
        assert sorted(client._pending) == [1, 3]

    def test_a_repeated_entry_completes_its_request_once(self):
        # Only a reply built in memory can repeat a timestamp; no frame does.
        client, replicas = self.silent_harness()
        client.handle_message("r0", self.grouped(replicas["r0"], [1, 1, 2]))
        assert sorted(record.timestamp for record in client.completed) == [1, 2]

    def test_a_reply_whose_entries_are_all_stale_is_never_verified(self):
        client, replicas = self.silent_harness()
        calls = []
        verify = client._window_verifier.verify
        client._window_verifier.verify = lambda *args: calls.append(args) or verify(*args)
        client.handle_message("r0", self.grouped(replicas["r0"], [40, 41, 42]))
        assert calls == []
        client.handle_message("r0", self.grouped(replicas["r0"], [40, 1]))
        assert len(calls) == 1
        assert client.completed_count == 1

    def test_a_reply_naming_another_client_is_ignored_whole(self):
        client, replicas = self.silent_harness()
        client.handle_message("r0", self.grouped(replicas["r0"], [1, 2], client_id="client-9"))
        assert client.completed_count == 0
        assert all(not pending.votes for pending in client._pending.values())

    def test_a_reply_from_a_non_member_is_ignored_whole(self):
        client, replicas = self.silent_harness()
        client.sessions[0].config.members = frozenset({"r0"})
        client.handle_message("r1", self.grouped(replicas["r1"], [1, 2, 3]))
        assert client.completed_count == 0
        assert all(not pending.votes for pending in client._pending.values())

    def test_a_reply_relayed_for_another_replica_is_ignored_whole(self):
        client, replicas = self.silent_harness()
        client.handle_message("r0", self.grouped(replicas["r1"], [1, 2, 3]))
        assert client.completed_count == 0
        assert all(not pending.votes for pending in client._pending.values())

    def test_a_bad_signature_rejects_every_entry(self):
        client, replicas = self.silent_harness()
        forged = self.grouped(replicas["r0"], [1, 2, 3])
        forged.more = ((2, {"ok": False}), (3, {"ok": True}))  # content no longer signed
        client.handle_message("r0", forged)
        assert client.completed_count == 0
        assert all(not pending.votes for pending in client._pending.values())

    def test_a_trusted_replica_completes_all_its_entries_with_one_reply(self):
        # Lion: one reply from the trusted private primary is enough.
        client, replicas = self.silent_harness(replies_needed=2, trusted=frozenset({"r0"}))
        client.handle_message("r0", self.grouped(replicas["r0"], [1, 2, 3]))
        assert sorted(record.timestamp for record in client.completed) == [1, 2, 3]
