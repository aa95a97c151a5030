"""Discrete-event simulation kernel.

The simulator is the substrate that stands in for the paper's Amazon EC2
testbed.  Everything in the repository -- network links, replica CPUs,
clients, fault injectors -- runs on top of a single :class:`Simulator`
instance that owns simulated time and the one heap of events.  A node's
simulated CPU is the sim backend's :class:`~repro.runtime.sim.SimCpu`.

The kernel is intentionally tiny and deterministic: events scheduled for the
same timestamp fire in insertion order, and all randomness used by higher
layers flows through a seeded :class:`random.Random` owned by the caller.
"""

from repro.sim.simulator import Simulator, Timer

__all__ = [
    "Simulator",
    "Timer",
]
