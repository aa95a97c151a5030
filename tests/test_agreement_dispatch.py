"""One way to wire an agreement into a replica, for all six protocols.

An agreement declares in ``handlers`` the phase message classes it handles
and the method for each; ``ReplicaBase.install_agreement`` routes them to
that method, bound to the replica.  The baselines install theirs at
construction and a SeeMoRe replica on every mode switch, in place of the
previous mode's, so a phase message of a mode the replica is not in reaches
no handler and changes nothing.
"""

import pytest

from repro.cluster import build_seemore, builder_for
from repro.core import Mode
from repro.smr.messages import Accept, Commit, PrePrepare, Prepare, ProxyPrepare, Request
from repro.smr.replica import request_digest
from repro.smr.state_machine import Operation

PHASE_MESSAGES = (Prepare, Accept, Commit, PrePrepare, ProxyPrepare)
LEADER = {Prepare, Accept, Commit}
PBFT = {PrePrepare, ProxyPrepare, Commit}
#: The phase message classes each protocol's agreement handles.
PROTOCOLS = {
    "seemore-lion": LEADER,
    "seemore-dog": LEADER,
    "seemore-peacock": PBFT,
    "cft": LEADER,
    "bft": PBFT,
    "s-upright": PBFT,
}


def assert_installed(replica):
    """Each phase message goes to the replica's agreement's method, or nowhere."""
    agreement = replica.agreement
    assert int(agreement.mode) == replica.mode_id
    for message_type in PHASE_MESSAGES:
        handler = replica._handlers.get(message_type)
        if message_type not in agreement.handlers:
            assert handler is None, (replica.node_id, message_type.__name__)
            continue
        assert handler.func == getattr(agreement, agreement.handlers[message_type])
        assert handler.args == (replica,) and not handler.keywords


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_each_phase_message_goes_to_the_replicas_agreement(protocol):
    deployment = builder_for(protocol)(num_clients=1)
    for replica in deployment.replicas.values():
        assert set(replica.agreement.handlers) == PROTOCOLS[protocol]
        assert_installed(replica)


def state_of(replica):
    """What a phase message could change: slots with their votes, and the evidence."""
    slots = {}
    for sequence in replica.slots.sequences:
        slot = replica.slots.existing_slot(sequence)
        votes = {phase: dict(voters) for phase, voters in slot.votes.items()}
        slots[sequence] = (slot.digest, slot.request, slot.ordering_message, slot.committed, votes)
    return slots, len(replica.evidence), replica.committed_count, replica.replies_sent


def foreign_phase_message(deployment, replica, message_type, request):
    """A ``message_type`` of the current view and mode id, signed by whoever would send it.

    The current agreement does not handle ``message_type``; the agreement
    that does would act on this message.
    """
    primary = replica.current_primary()
    voter = next(
        each
        for each in replica.config.public_replicas
        if each not in (replica.node_id, primary)
    )
    fields = dict(
        view=replica.view,
        sequence=replica.slots.highest_sequence() + 1,
        digest=request_digest(request),
        mode=replica.mode_id,
    )
    if message_type in (Prepare, PrePrepare):
        sender, message = primary, message_type(request=request, **fields)
    elif message_type is Accept:
        sender, message = voter, Accept(replica_id=voter, signed=True, **fields)
    else:
        sender, message = voter, message_type(replica_id=voter, **fields)
    message.sign(deployment.keystore.signer_for(sender))
    return sender, message


def test_a_phase_message_of_another_mode_changes_nothing():
    """Walked Lion -> Dog -> Peacock, a replica ignores the other modes' phase messages."""
    deployment = build_seemore(mode=Mode.LION, num_clients=2, client_timeout=0.1, seed=5)
    config = deployment.group().config
    simulator = deployment.simulator
    keystore = deployment.keystore
    keystore.register("foreign-client")
    request = Request(operation=Operation("noop"), timestamp=1, client_id="foreign-client")
    request.sign(keystore.signer_for("foreign-client"))

    deployment.start_clients()
    until = 0.1
    simulator.run(until=until)
    for view, mode in enumerate((Mode.LION, Mode.DOG, Mode.PEACOCK)):
        if mode is not Mode.LION:
            deployment.replicas[config.private_replicas[0]].request_mode_switch(mode)
            until += 0.15
            simulator.run(until=until)
        for replica in deployment.correct_replicas():
            assert (replica.mode, replica.view) == (mode, view)
            assert_installed(replica)
            assert replica.slots.sequences, "the walk ran no traffic"
            foreign = [each for each in PHASE_MESSAGES if each not in replica.agreement.handlers]
            assert len(foreign) == 2
            for message_type in foreign:
                before = state_of(replica)
                replica.handle_message(
                    *foreign_phase_message(deployment, replica, message_type, request)
                )
                assert state_of(replica) == before, (mode.name, message_type.__name__)
    deployment.stop_clients()
