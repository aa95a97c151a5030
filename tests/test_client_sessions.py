"""One client: every request is judged by the session it was sent on.

``Client`` and ``ShardedClient`` share one implementation of ``Busy``
backoff, the membership filter, vote counting and completion, written
against ``pending.session``.  These tests hold a request pending (its
replicas are crashed) and hand the client signed messages directly, so what
the client does with each one is the only thing under test.
"""

import pytest

from repro.cluster import build_seemore, build_sharded_seemore
from repro.core import Mode
from repro.smr.client import BUSY_BACKOFF_BASE
from repro.smr.messages import Busy, Reply
from repro.workload import Workload, WorkloadSpec
from repro.shard import ShardedClient
from repro.workload.openloop import ClientPopulation, OpenLoopConnection, PoissonArrivals


def single_dog():
    deployment = build_seemore(mode=Mode.DOG, num_clients=3)
    deployment.keystore.register("mallory")
    return deployment, 0, ["client-1", "client-2", "mallory"]  # 2m+1 non-replicas


def two_shards():
    deployment = build_sharded_seemore(
        num_shards=2,
        num_clients=1,
        client_window=8,
        workload=Workload.build(WorkloadSpec(kind="sharded-kv", cross_shard_fraction=0.0)),
    )
    return deployment, 1, sorted(deployment.shards[0].replicas)  # another shard's replicas


def stall(deployment, group):
    """Crash every replica; return client 0 and one request pending on ``group``."""
    for replica in deployment.replicas.values():
        replica.crash()
    client = deployment.clients[0]
    client.start()
    pending = next(p for p in client._pending.values() if p.session.index == group)
    return client, pending


def signed(deployment, message_type, pending, sender, **fields):
    session = pending.session
    message = message_type(
        mode=session.known_mode,
        view=session.known_view,
        timestamp=pending.request.timestamp,
        client_id=pending.request.client_id,
        replica_id=sender,
        **fields,
    )
    return message.sign(deployment.keystore.signer_for(sender))


def needed_replies(pending):
    return pending.session.config.rules[pending.session.known_mode].quorum


class TestOnlyMembersOfTheOwningGroupVote:
    @pytest.mark.parametrize(
        "build", [single_dog, pytest.param(two_shards, marks=pytest.mark.shard)]
    )
    def test_outsiders_complete_nothing_and_members_do(self, build):
        deployment, group, outsiders = build()
        client, pending = stall(deployment, group)
        members = sorted(pending.session.config.members)
        assert not set(outsiders) & set(members)
        assert len(outsiders) >= needed_replies(pending)

        for outsider in outsiders:
            client.handle_message(
                outsider, signed(deployment, Reply, pending, outsider, result={"ok": True})
            )
            client.handle_message(
                outsider, signed(deployment, Busy, pending, outsider, queue_depth=9)
            )
        assert client.completed_count == 0
        assert client.busy_rejects == 0
        assert pending.votes == {}

        # The same replies from the group's own replicas are a quorum.
        for member in members[: needed_replies(pending)]:
            client.handle_message(
                member, signed(deployment, Reply, pending, member, result={"ok": True})
            )
        assert client.completed_count == 1


@pytest.mark.adaptive
class TestUntrustedReplyFloor:
    def test_lions_public_quorum_is_m_plus_1_whatever_the_retransmit_quorum(self):
        """Lion's "one signed reply" is the private cloud's alone: a result
        from the public cloud takes m+1 matching replies, and tuning the
        retransmit quorum down (e.g. to 1) must not silently lower that."""
        deployment = build_seemore(mode=Mode.LION, byzantine_tolerance=2, num_clients=1)
        client, pending = stall(deployment, 0)
        session = pending.session
        lion = session.rules[int(Mode.LION)]
        assert lion.quorum == 3
        assert lion.trusted == frozenset(deployment.group().config.private_replicas)
        session.rules[int(Mode.LION)] = lion._replace(retransmit_quorum=1)

        public = sorted(session.config.members - lion.trusted)
        for count, sender in enumerate(public[:3], start=1):
            client.handle_message(
                sender, signed(deployment, Reply, pending, sender, result={"ok": True})
            )
            assert client.completed_count == (1 if count == 3 else 0)


@pytest.mark.shard
class TestBusyOnShards:
    def test_resend_goes_to_the_owning_shards_primary_at_its_known_view(self):
        deployment, group, _ = two_shards()
        client, pending = stall(deployment, group)
        session = pending.session
        session.known_view = 1
        expected = session.config.request_targets(1, session.known_mode)
        assert all(target.startswith("s1-") for target in expected)

        rejecter = sorted(session.config.members)[0]
        client.handle_message(
            rejecter, signed(deployment, Busy, pending, rejecter, queue_depth=9)
        )
        assert client.busy_rejects == 1
        resent = []
        client._send_request = lambda targets, request: resent.append(
            (list(targets), request.timestamp)
        )
        deployment.run(2 * BUSY_BACKOFF_BASE)
        assert resent == [(expected, pending.request.timestamp)]

    def test_a_completed_request_leaves_no_resend_behind(self):
        deployment, group, _ = two_shards()
        client, pending = stall(deployment, group)
        members = sorted(pending.session.config.members)
        client.handle_message(
            members[0], signed(deployment, Busy, pending, members[0], queue_depth=9)
        )
        assert pending.request.timestamp in client._busy_resends
        for member in members[: needed_replies(pending)]:
            client.handle_message(
                member, signed(deployment, Reply, pending, member, result={"ok": True})
            )
        assert client.completed_count == 1
        assert client._busy_resends == {}


def stalled_routed_connection(cross_shard_fraction, busy_retries=1):
    """One open-loop connection over two shards whose replicas never answer.

    The connection's window (2) is full of arrivals from the driver's
    backlog; every request sits pending until the test hands it a message.
    """
    deployment = build_sharded_seemore(
        num_shards=2,
        num_clients=0,
        workload=Workload.build(
            WorkloadSpec(kind="sharded-kv", cross_shard_fraction=cross_shard_fraction)
        ),
    )
    for replica in deployment.replicas.values():
        replica.crash()
    population = ClientPopulation(num_users=10, arrivals=PoissonArrivals(rate=400.0, seed=1))
    driver = deployment.client_pool.spawn_open_loop(
        population, connections=1, max_busy_retries=busy_retries, window=2
    )
    driver.start()
    deployment.run(0.05)
    driver.stop()  # no further arrivals: the backlog only drains from here on
    (connection,) = deployment.clients
    assert connection._logical_outstanding == 2 and driver.backlog_depth > 0
    return deployment, driver, connection


def reject(deployment, connection, pending, times):
    sender = sorted(pending.session.config.members)[0]
    for _ in range(times):
        connection.handle_message(
            sender, signed(deployment, Busy, pending, sender, queue_depth=9)
        )


@pytest.mark.shard
@pytest.mark.openloop
class TestOpenLoopOverRoutedSessions:
    """The two rules routing adds to shedding; each test fails without its rule."""

    def test_a_routed_connection_is_the_sharded_client_with_the_open_loop_hooks(self):
        deployment, driver, connection = stalled_routed_connection(cross_shard_fraction=0.0)
        assert isinstance(connection, ShardedClient) and isinstance(connection, OpenLoopConnection)
        assert connection.router is deployment.router and connection.driver is driver
        assert len(connection.sessions) == 2

    def test_a_shed_logical_request_gives_its_window_slot_back(self):
        deployment, driver, connection = stalled_routed_connection(cross_shard_fraction=0.0)
        backlog = driver.backlog_depth
        connection._stopped = False  # keep pulling from the backlog, as mid-run
        victim = next(iter(connection._pending.values()))
        reject(deployment, connection, victim, times=2)  # one retry allowed, then shed
        assert (connection.shed_requests, driver.shed) == (1, 1)
        assert victim.request.timestamp not in connection._pending
        # The freed slot was refilled from the backlog straight away; without
        # the release the logical window would read 3 of 2 and wedge.
        assert driver.backlog_depth == backlog - 1
        assert connection._logical_outstanding == len(connection._pending) == 2
        # ... and its latency clock started at its arrival, not at the refill.
        refilled = list(connection._pending.values())[-1]
        assert refilled.sent_at < refilled.last_sent_at == connection.now

    def test_a_two_phase_sub_request_is_never_shed(self):
        deployment, driver, connection = stalled_routed_connection(cross_shard_fraction=1.0)
        prepare = next(iter(connection._pending.values()))
        assert prepare.on_result is not None and prepare.request.operation.kind == "txn_prepare"
        reject(deployment, connection, prepare, times=5)
        assert connection.busy_rejects == 5 and prepare.busy_attempts == 5
        assert (connection.shed_requests, driver.shed) == (0, 0)
        # Still pending, backing off like a closed-loop request: the
        # participant will be asked again.
        assert connection._pending[prepare.request.timestamp] is prepare
        assert prepare.request.timestamp in connection._busy_resends
