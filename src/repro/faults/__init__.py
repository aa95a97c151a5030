"""Fault injection: crash failures and Byzantine behaviours.

The paper's failure model (Section 3.1) admits two fault classes:

* **crash** faults in the private cloud — replicas fail by stopping and may
  later restart; they never lie;
* **Byzantine** faults in the public cloud — replicas may behave
  arbitrarily (equivocate, stay silent, send corrupt signatures, lie to
  clients), but cannot forge other replicas' signatures.

This package injects both into a running deployment, immediately.  Putting
a fault on a clock is the scenario engine's job: a
:class:`~repro.scenarios.events.ScenarioEvent` (``Crash``, ``Byzantine``,
``Partition`` ...) applies these helpers at its simulated time -- the
view-change experiment of Figure 4 is ``Crash(at=0.3)`` on each protocol.
"""

from repro.faults.crash import crash_primary, crash_replica, recover_replica
from repro.faults.byzantine import (
    BYZANTINE_STRATEGIES,
    make_byzantine,
    make_corrupt_signatures,
    make_equivocating,
    make_lying,
    make_silent,
    restore_honest,
)

__all__ = [
    "crash_replica",
    "crash_primary",
    "recover_replica",
    "make_byzantine",
    "make_silent",
    "make_equivocating",
    "make_lying",
    "make_corrupt_signatures",
    "restore_honest",
    "BYZANTINE_STRATEGIES",
]
