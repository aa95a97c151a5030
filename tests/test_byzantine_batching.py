"""Byzantine strategies under request batching.

PR 1 moved slot payloads from bare requests to ``Batch`` objects, which
silently broke ``make_equivocating`` (it tampered a ``.operation`` that a
batch does not have, producing a twist whose digest *matched* the
original, i.e. no equivocation at all).  These tests pin the fixed
behaviour:

* the tampered payload of a batch differs by digest and stays
  self-consistent (digest == D(payload)), so receivers accept whichever
  proposal arrives first and detect the conflict on the slot;
* a correct Peacock proxy refuses the second, conflicting assignment;
* every Byzantine strategy (equivocate / lie / corrupt) is absorbed in
  all three modes while batching is active;
* a lying proxy forges every entry of a reply that answers several
  requests, and no client accepts any of them.
"""

import pytest

from repro.cluster import build_seemore
from repro.core import BatchPolicy, Mode
from repro.core import messages as msgs
from repro.faults import make_byzantine, make_equivocating
from repro.faults.byzantine import tampered_payload
from repro.smr.ledger import assert_ledgers_consistent
from repro.scenarios.invariants import NoForgedReplies
from repro.smr.messages import Batch, Reply, Request
from repro.smr.replica import request_digest
from repro.smr.state_machine import Operation
from repro.workload import Workload

BATCHING = BatchPolicy(max_batch=4, linger=0.001)


def build(mode, **kwargs):
    return build_seemore(
        crash_tolerance=1,
        byzantine_tolerance=1,
        mode=mode,
        workload=Workload.build("0/0"),
        num_clients=kwargs.pop("num_clients", 2),
        seed=kwargs.pop("seed", 21),
        client_timeout=kwargs.pop("client_timeout", 0.1),
        batch_policy=kwargs.pop("batch_policy", BATCHING),
        client_window=kwargs.pop("client_window", 4),
        **kwargs,
    )


def signed_batch(deployment, count=3):
    keystore = deployment.keystore
    requests = []
    for index in range(count):
        client_id = f"batch-client-{index}"
        keystore.register(client_id)
        request = Request(
            operation=Operation("noop", (), ""), timestamp=index + 1, client_id=client_id
        )
        request.sign(keystore.signer_for(client_id))
        requests.append(request)
    return Batch(requests=requests)


class TestTamperedPayload:
    def test_bare_request_twist_changes_digest(self):
        request = Request(operation=Operation("noop"), timestamp=1, client_id="c")
        twisted = tampered_payload(request)
        assert request_digest(twisted) != request_digest(request)

    def test_batch_twist_changes_batch_digest(self):
        deployment = build(Mode.LION)
        batch = signed_batch(deployment)
        twisted = tampered_payload(batch)
        assert isinstance(twisted, Batch)
        assert len(twisted) == len(batch)
        assert request_digest(twisted) != request_digest(batch)

    def test_original_batch_is_not_mutated(self):
        deployment = build(Mode.LION)
        batch = signed_batch(deployment)
        digest_before = request_digest(batch)
        tampered_payload(batch)
        assert request_digest(batch) == digest_before
        assert all(request.operation.kind == "noop" for request in batch)


class TestEquivocationUnderBatching:
    """The regression the fault-scenario work exposed (ISSUE 2)."""

    def test_multicast_emits_digest_divergent_self_consistent_proposals(self):
        deployment = build(Mode.PEACOCK)
        config = deployment.group().config
        primary = deployment.replicas[config.primary_of_view(0, Mode.PEACOCK)]

        captured = []
        primary.multicast = lambda destinations, payload: captured.append(
            (list(destinations), payload)
        )
        make_equivocating(primary)

        batch = signed_batch(deployment)
        preprepare = msgs.PrePrepare(
            view=0,
            sequence=1,
            digest=request_digest(batch),
            request=batch,
            mode=int(Mode.PEACOCK),
        )
        preprepare.sign(primary.signer)
        primary.multicast(primary.other_replicas(), preprepare)

        assert len(captured) == 2, "both halves of the group must get a proposal"
        (_, honest), (_, twisted) = captured
        assert honest.digest != twisted.digest, "the proposals must genuinely conflict"
        for message in (honest, twisted):
            # Self-consistent: receivers that check D(µ) against the carried
            # payload accept each proposal in isolation...
            assert message.digest == request_digest(message.request)
            # ...and the signature is the equivocator's own, intact.
            assert message.verify(primary.verifier, expected_signer=primary.node_id)
        assert isinstance(twisted.request, Batch)
        assert len(twisted.request) == len(batch)

    def test_correct_proxy_rejects_second_assignment(self):
        deployment = build(Mode.PEACOCK)
        config = deployment.group().config
        primary = deployment.replicas[config.primary_of_view(0, Mode.PEACOCK)]
        proxy = deployment.replicas[
            next(r for r in config.public_replicas if r != primary.node_id)
        ]

        batch = signed_batch(deployment)
        honest = msgs.PrePrepare(
            view=0, sequence=1, digest=request_digest(batch), request=batch,
            mode=int(Mode.PEACOCK),
        )
        honest.sign(primary.signer)
        twisted_batch = tampered_payload(batch)
        twisted = msgs.PrePrepare(
            view=0, sequence=1, digest=request_digest(twisted_batch),
            request=twisted_batch, mode=int(Mode.PEACOCK),
        )
        twisted.sign(primary.signer)

        proxy.handle_message(primary.node_id, honest)
        slot = proxy.slots.slot(1)
        assert slot.digest == honest.digest

        proxy.handle_message(primary.node_id, twisted)
        assert slot.digest == honest.digest, "the conflicting assignment must be refused"
        assert slot.request is batch

    @pytest.mark.integration
    def test_equivocating_peacock_primary_with_batches_is_removed(self):
        deployment = build(Mode.PEACOCK)
        config = deployment.group().config
        primary = config.primary_of_view(0, Mode.PEACOCK)
        simulator = deployment.simulator
        deployment.start_clients()
        simulator.run(until=0.12)
        make_byzantine(deployment.group(), primary, "equivocate")
        simulator.run(until=1.0)
        deployment.stop_clients()
        assert_ledgers_consistent(deployment.group().correct_ledgers())
        assert max(r.view for r in deployment.correct_replicas()) >= 1, (
            "a view change must remove the equivocating primary"
        )


@pytest.mark.integration
@pytest.mark.parametrize(
    "mode", [Mode.LION, Mode.DOG, Mode.PEACOCK], ids=lambda mode: mode.name.lower()
)
@pytest.mark.parametrize("strategy", ["equivocate", "lie", "corrupt"])
def test_byzantine_backup_tolerated_under_batching(mode, strategy):
    """All strategies, all modes, with multi-request batches in flight."""
    deployment = build(mode, client_window=2)
    config = deployment.group().config
    primary = config.primary_of_view(0, mode)
    victim = next(r for r in config.public_replicas if r != primary)
    simulator = deployment.simulator
    deployment.start_clients()
    simulator.run(until=0.1)
    before = deployment.metrics.completed
    make_byzantine(deployment.group(), victim, strategy)
    simulator.run(until=0.5)
    deployment.stop_clients()

    assert deployment.metrics.completed > before + 10, (
        f"{mode.name} must keep completing requests with a {strategy} replica"
    )
    assert_ledgers_consistent(deployment.group().correct_ledgers())
    batch_sizes = [
        size
        for replica in deployment.correct_replicas()
        for size in replica.batcher.proposed_batch_sizes
    ]
    assert any(size > 1 for size in batch_sizes), "batching must actually have engaged"


@pytest.mark.integration
@pytest.mark.parametrize("mode", [Mode.DOG, Mode.PEACOCK], ids=lambda mode: mode.name.lower())
def test_a_lying_proxy_forges_every_entry_and_no_client_accepts_one(mode):
    """A grouped reply carries several requests' results; the lie covers them all."""
    deployment = build(mode, num_clients=1, client_window=8)
    checker = NoForgedReplies()
    checker.attach(deployment)
    config = deployment.group().config
    primary = config.primary_of_view(0, mode)
    liar = deployment.group().replica(
        next(r for r in config.public_replicas if r != primary)
    )
    lies = []
    honest_send = liar.send

    def recording_send(dst, payload):
        if isinstance(payload, Reply):
            lies.append(payload)
        honest_send(dst, payload)

    liar.send = recording_send
    make_byzantine(deployment.group(), liar.node_id, "lie")
    deployment.start_clients()
    deployment.simulator.run(until=0.3)
    deployment.stop_clients()
    deployment.simulator.run(until=0.4)

    forged = {"ok": False, "value": "forged-by-" + liar.node_id}
    assert any(lie.more for lie in lies), "some reply must answer several requests"
    assert all(result == forged for lie in lies for _, result, _ in lie.entries())
    ((client_id, accepted),) = checker._accepted.items()
    assert len(accepted) == deployment.metrics.completed > 100
    assert all(result != forged for _, result in accepted.values())
    assert checker.finalize(deployment) == []
