"""Crash (fail-stop) fault injection.

Crash faults are the only faults the paper allows in the private cloud: a
crashed replica stops processing and sending, drops whatever was queued on
its CPU, and may later recover.  These helpers operate on one replica
:class:`~repro.cluster.wiring.Group` (``deployment.group()`` of a single
cluster, ``deployment.shards[i]`` of several) so tests and benchmarks can
crash replicas by name or by role.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.wiring import Group


def crash_replica(group: Group, replica_id: str) -> None:
    """Fail-stop one replica and record it as faulty for safety accounting."""
    replica = group.replica(replica_id)
    replica.crash()
    group.mark_faulty(replica_id)


def recover_replica(group: Group, replica_id: str) -> None:
    """Bring a crashed replica back online.

    The replica resumes with the state it had when it crashed; it catches up
    through the protocol's normal state-transfer / checkpoint machinery.  It
    stays in the group's faulty set for conservative safety accounting.
    """
    group.replica(replica_id).recover()


def current_primary_id(group: Group) -> str:
    """The id of the primary/leader of the group's current view.

    Works for every protocol in the repository: replicas expose their view
    and the group carries its protocol configuration; the primary of the
    *lowest* correct view is reported, which is the one clients are still
    talking to.
    """
    correct = group.correct_replicas()
    if correct:
        lowest = min(correct, key=lambda replica: replica.view)
        view = lowest.view
        # Prefer the replica's *live* mode: after a dynamic mode switch the
        # group's initial mode is stale.
        mode = getattr(lowest, "mode", group.mode)
    else:
        view = 0
        mode = group.mode
    if mode is not None:
        return group.config.primary_of_view(view, mode)
    return group.config.primary_of_view(view)


def crash_primary(group: Group, replica_id: Optional[str] = None) -> str:
    """Crash the current primary (or ``replica_id`` if given); returns its id."""
    target = replica_id or current_primary_id(group)
    crash_replica(group, target)
    return target
