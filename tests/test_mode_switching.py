"""Tests for dynamic mode switching (Section 5.4).

A trusted replica multicasts ``MODE-CHANGE``; the protocol performs a view
change and resumes in the new mode.  The tests check that switching works
between every pair of modes while clients keep running, that requests keep
completing afterwards, and that safety is never violated across the switch.
"""

import pytest

from repro.cluster import build_seemore
from repro.core import BatchPolicy, Mode
from repro.smr.replica import NOOP_CLIENT
from repro.smr.ledger import assert_ledgers_consistent
from repro.workload import Workload


def build(mode, **kwargs):
    return build_seemore(
        crash_tolerance=1,
        byzantine_tolerance=1,
        mode=mode,
        workload=Workload.build("0/0"),
        num_clients=kwargs.pop("num_clients", 2),
        seed=kwargs.pop("seed", 5),
        client_timeout=0.1,
        **kwargs,
    )


def switch_modes(deployment, new_mode, switch_at=0.2, total=1.0):
    """Run, ask a trusted replica to switch modes mid-run, keep running."""
    config = deployment.group().config
    simulator = deployment.simulator
    deployment.start_clients()
    simulator.run(until=switch_at)
    completed_before = deployment.metrics.completed
    initiator = deployment.replicas[config.private_replicas[0]]
    initiator.request_mode_switch(new_mode)
    simulator.run(until=total)
    deployment.stop_clients()
    return completed_before, deployment.metrics.completed


# All six mode-switch pairs; the fast tier runs the two extreme switches
# (trusted Lion <-> untrusted Peacock) and leaves the rest to full runs.
SWITCHES = [
    pytest.param(Mode.LION, Mode.DOG, marks=pytest.mark.slow),
    (Mode.LION, Mode.PEACOCK),
    pytest.param(Mode.DOG, Mode.LION, marks=pytest.mark.slow),
    pytest.param(Mode.DOG, Mode.PEACOCK, marks=pytest.mark.slow),
    (Mode.PEACOCK, Mode.LION),
    pytest.param(Mode.PEACOCK, Mode.DOG, marks=pytest.mark.slow),
]


pytestmark = pytest.mark.integration


class TestModeSwitching:
    @pytest.mark.parametrize("start_mode,target_mode", SWITCHES)
    def test_switch_preserves_liveness_safety_and_mode(self, start_mode, target_mode):
        deployment = build(start_mode)
        before, after = switch_modes(deployment, target_mode)
        assert before > 0, "progress before the switch"
        assert after > before + 10, (
            f"{start_mode.name}->{target_mode.name}: progress after the switch"
        )
        modes = {replica.mode for replica in deployment.correct_replicas()}
        assert modes == {target_mode}
        assert_ledgers_consistent(deployment.group().correct_ledgers())

    @pytest.mark.slow
    def test_switch_advances_the_view(self):
        deployment = build(Mode.LION)
        switch_modes(deployment, Mode.PEACOCK)
        assert all(replica.view >= 1 for replica in deployment.correct_replicas())

    def test_untrusted_replica_cannot_initiate_switch(self):
        deployment = build(Mode.LION)
        config = deployment.group().config
        untrusted = deployment.replicas[config.public_replicas[0]]
        with pytest.raises(PermissionError):
            untrusted.request_mode_switch(Mode.PEACOCK)

    @pytest.mark.slow
    def test_switch_back_and_forth(self):
        deployment = build(Mode.LION)
        config = deployment.group().config
        simulator = deployment.simulator
        deployment.start_clients()
        simulator.run(until=0.2)
        deployment.replicas[config.private_replicas[0]].request_mode_switch(Mode.PEACOCK)
        simulator.run(until=0.6)
        trusted = next(
            deployment.replicas[r]
            for r in config.private_replicas
            if not deployment.replicas[r].crashed
        )
        trusted.request_mode_switch(Mode.LION)
        simulator.run(until=1.2)
        deployment.stop_clients()

        assert_ledgers_consistent(deployment.group().correct_ledgers())
        modes = {replica.mode for replica in deployment.correct_replicas()}
        assert modes == {Mode.LION}
        assert deployment.metrics.completed > 50

    @pytest.mark.slow
    def test_clients_follow_the_new_mode(self):
        deployment = build(Mode.LION)
        switch_modes(deployment, Mode.DOG, total=1.2)
        # After the switch the clients should have learned the new mode from
        # replies and be applying the Dog reply quorum.
        assert any(
            client.sessions[0].known_mode == int(Mode.DOG) for client in deployment.clients
        )

    @pytest.mark.parametrize(
        "start_mode,target_mode",
        [
            (Mode.LION, Mode.PEACOCK),
            pytest.param(Mode.PEACOCK, Mode.DOG, marks=pytest.mark.slow),
        ],
    )
    def test_switch_mid_batch_loses_and_duplicates_nothing(self, start_mode, target_mode):
        """Requests buffered in the primary's batcher when the switch hits
        are neither lost nor executed twice.

        A long linger plus a deep batch keeps the buffer non-empty almost
        continuously, so the MODE-CHANGE lands with requests still queued;
        they must be re-homed to the new view's primary.
        """
        deployment = build(
            start_mode,
            num_clients=3,
            batch_policy=BatchPolicy(max_batch=16, linger=0.004),
            client_window=4,
        )
        before, after = switch_modes(deployment, target_mode, total=1.4)
        assert before > 0 and after > before + 10

        # Exactly-once: no correct replica executed any request twice.
        for replica in deployment.correct_replicas():
            keys = [
                (execution.client_id, execution.timestamp)
                for execution in replica.executor.executed
                if execution.client_id != NOOP_CLIENT
            ]
            assert len(keys) == len(set(keys)), f"{replica.node_id} double-executed"

        # Nothing lost: per client, completions have no deep holes (the tail
        # of the pipelined window may be cut off by the end of the run).
        for client in deployment.clients:
            stamps = {record.timestamp for record in client.completed}
            assert stamps, f"{client.node_id} completed nothing across the switch"
            top = max(stamps)
            missing = set(range(1, top + 1)) - stamps
            assert len(missing) <= client.window, (
                f"{client.node_id} lost requests across the switch: {sorted(missing)[:10]}"
            )
        # Nothing stays stranded in a batcher beyond the final in-flight
        # window (arrivals in the last linger interval may still be queued
        # when the simulation cuts off).
        in_flight_cap = sum(client.window for client in deployment.clients)
        for replica in deployment.correct_replicas():
            assert replica.batcher.queued <= in_flight_cap
        assert_ledgers_consistent(deployment.group().correct_ledgers())

    def test_mode_change_message_from_untrusted_sender_is_ignored(self):
        deployment = build(Mode.LION)
        config = deployment.group().config
        simulator = deployment.simulator
        deployment.start_clients()
        simulator.run(until=0.2)

        # Forge a MODE-CHANGE "from" an untrusted replica by injecting it
        # directly into a correct replica's handler.
        from repro.core import messages as msgs

        untrusted_id = config.public_replicas[0]
        untrusted = deployment.replicas[untrusted_id]
        forged = msgs.ModeChange(new_view=5, new_mode=int(Mode.PEACOCK), replica_id=untrusted_id)
        forged.sign(untrusted.signer)
        victim = deployment.replicas[config.private_replicas[1]]
        victim.handle_message(untrusted_id, forged)

        simulator.run(until=0.6)
        deployment.stop_clients()
        assert victim.mode is Mode.LION
        assert victim.view == 0
