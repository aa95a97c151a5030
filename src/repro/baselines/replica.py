"""The primary-backup skeleton under the three baseline protocols.

Paxos, PBFT and S-UpRight differ in their agreement phases and agree on
everything around them.  The request intake and the commit entry are
:class:`~repro.smr.replica.ReplicaBase`'s, as for SeeMoRe.  Each protocol
runs a stateless ``agreement``: Paxos :class:`~repro.smr.leader.LeaderAgreement`
(Lion's, unsigned), PBFT and S-UpRight :class:`~repro.smr.pbft.PbftAgreement`
(Peacock's), and installs it at construction with
:meth:`~repro.smr.replica.ReplicaBase.install_agreement`, the one way
SeeMoRe's modes install theirs too.  :class:`BaselineReplica` writes the
rest once:

* **ordering** — the primary allocates the next sequence number and
  proposes its ``agreement``'s ordering message there;
* **the view change's answers** — the state machine is
  :class:`~repro.smr.view_change.ViewChangeManager`'s; here a view-change
  message lists every slot above ``_floor()`` for which
  ``_is_prepared(slot)`` (the collector's own, every slot it has filled),
  ``join_threshold()`` suspicions make a replica join, the new primary
  collects ``agreement_quorum`` votes into a ``NewView`` (mode 0, no
  commits), and installing it force-fills each listed slot and hands the
  uncommitted ones to the agreement's ``reenter``.
* **catch-up** — a lagging replica adopts a snapshot that as many matching
  responses name as a client needs matching replies
  (``state_transfer_quorum``).

View-change and new-view messages are signed and verified iff the
configuration says replica messages are (``config.messages_are_signed``).
A protocol module names its ``agreement`` and gives the three answers above.
"""

from __future__ import annotations

from typing import Any, Collection, Sequence

from repro.baselines import messages as msgs
from repro.baselines.config import BaselineConfig
from repro.crypto.signatures import Signer, Verifier
from repro.smr.messages import NewView, ProtocolMessage, Request
from repro.smr.replica import ReplicaBase
from repro.smr.slots import Slot
from repro.smr.state_machine import StateMachine
from repro.smr.view_change import ViewChangeManager, reconcile
from repro.wire.codec import Entry


class BaselineReplica(ReplicaBase):
    """One replica of a primary-backup baseline; a subclass names its ``agreement``."""

    def __init__(
        self,
        node_id: str,
        runtime: Any,
        config: BaselineConfig,
        signer: Signer,
        verifier: Verifier,
        state_machine: StateMachine,
    ) -> None:
        super().__init__(node_id, runtime, config.replicas, signer, verifier, state_machine)
        self.config = config
        self.install_roles()
        self.view_changes = ViewChangeManager(self)

        self.register_handler(msgs.BaselineViewChange, self.view_changes.on_view_change)
        self.register_handler(NewView, self.view_changes.on_new_view)
        self.install_agreement(self.agreement)

    # -- what a protocol states ------------------------------------------------

    def _floor(self) -> int:
        """The sequence at or below which this replica reports nothing in a view change."""
        raise NotImplementedError

    def _is_prepared(self, slot: Slot) -> bool:
        """Whether a filled slot may have committed somewhere and must survive the view."""
        raise NotImplementedError

    def join_threshold(self) -> int:
        """Suspicions by distinct replicas that prove a view change is under way."""
        raise NotImplementedError

    # -- roles -------------------------------------------------------------------

    def install_roles(self) -> None:
        self._primary = self.config.primary_of_view(self.view)

    def _signed(self, message: ProtocolMessage) -> ProtocolMessage:
        if self.config.messages_are_signed:
            message.sign(self.signer)
        return message

    def verify_message(self, src: str, message: ProtocolMessage) -> bool:
        if not self.config.messages_are_signed:
            return True
        return message.signed and message.verify(self.verifier, expected_signer=src)

    def state_transfer_quorum(self, src: str) -> int:
        """As many matching responses as a client needs matching replies:
        one in the crash model, one more than can lie in the Byzantine ones."""
        return self.config.client_reply_quorum

    # -- ordering ----------------------------------------------------------------------

    def order(self, request: Request) -> None:
        sequence = self.next_sequence
        self.next_sequence += 1
        self.propose(self.agreement, sequence, request)

    # -- the view change's answers ----------------------------------------------------------

    def view_change_message(
        self, target_view: int, mode: int, collector: bool
    ) -> msgs.BaselineViewChange:
        """This replica's state above its floor, for the collector of ``target_view``.

        What a replica sends lists the slots it holds prepared; what the
        collector adds on its own behalf lists every slot it has filled.
        """
        floor = self._floor()
        return self._signed(
            msgs.BaselineViewChange(
                new_view=target_view,
                replica_id=self.node_id,
                checkpoint_sequence=floor,
                prepared=[
                    Entry(
                        sequence=slot.sequence,
                        view=slot.view,
                        digest=slot.digest,
                        request=slot.request,
                    )
                    for slot in self.slots.slots_above(floor)
                    if slot.request is not None
                    and slot.digest is not None
                    and (collector or self._is_prepared(slot))
                ],
                signed=self.config.messages_are_signed,
            )
        )

    def new_view_message(
        self, target_view: int, mode: int, votes: Sequence[msgs.BaselineViewChange]
    ) -> NewView:
        # A baseline's votes report no commits and nothing is promoted, so
        # every entry is a prepare.
        checkpoint_seq, _commits, prepares = reconcile(votes, target_view)
        return self._signed(
            NewView(
                new_view=target_view,
                mode=0,
                replica_id=self.node_id,
                checkpoint_sequence=checkpoint_seq,
                prepares=prepares,
                commits=[],
                signed=self.config.messages_are_signed,
            )
        )

    def view_collector(self, target_view: int, mode: int) -> str:
        return self.config.primary_of_view(target_view)

    def view_change_voters(self, mode: int) -> Collection[str]:
        return self.config.replicas

    def view_change_quorum(self, mode: int) -> int:
        return self.config.agreement_quorum

    def leave_view(self) -> None:
        """Nothing to pause: ``is_primary()`` is false while ``in_view_change``."""

    @property
    def protocol_label(self) -> str:
        return type(self).__name__

    def enter_view(self, src: str, message: NewView, previous_view: int) -> None:
        """Force-fill each listed slot and hand the uncommitted ones to the agreement."""
        self.clear_assignments()
        highest = message.checkpoint_sequence
        for entry in message.prepares:
            highest = max(highest, entry.sequence)
            if entry.request is None:
                continue
            # New-view entries supersede whatever a (possibly equivocating)
            # old primary got this replica to tentatively accept.
            slot = self.fill_slot(entry.sequence, entry.digest, entry.request, entry, force=True)
            if not slot.committed:
                self.agreement.reenter(self, slot, entry)
        self.bump_sequence_counter(highest + 1)
        if any(not slot.committed for slot in self.slots.slots_above(self._floor())):
            self.view_changes.start_request_timer()
