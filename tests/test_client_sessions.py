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
from repro.smr.messages import Busy, Reply
from repro.workload import Workload, WorkloadSpec
from repro.workload.openloop import ClientPopulation, PoissonArrivals


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
        assert lion.trusted == frozenset(deployment.extras["config"].private_replicas)
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
        deployment.run(2 * session.config.busy_backoff_base)
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


@pytest.mark.shard
def test_open_loop_over_a_sharded_pool_is_refused_by_name():
    deployment, _, _ = two_shards()
    population = ClientPopulation(num_users=10, arrivals=PoissonArrivals(rate=10.0, seed=1))
    with pytest.raises(NotImplementedError, match="open-loop load over a sharded pool"):
        deployment.client_pool.spawn_open_loop(population)
