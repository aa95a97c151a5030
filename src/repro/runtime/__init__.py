"""Runtime backends: what the protocol core runs *on*.

The protocol layers (``repro.core``, ``repro.smr``, ``repro.net.node``)
are written against the narrow interfaces in :mod:`repro.runtime.api` —
a clock, timers, a CPU, a transport and one ``run(kickoff, until,
timeout)``, which the runners and observers drive too — and never import
the simulator or the asyncio machinery.  Two backends implement them:

* :mod:`repro.runtime.sim` — the deterministic discrete-event backend
  (the default for experiments, scenarios, and the golden files);
* :mod:`repro.runtime.aio` — asyncio Protocol callbacks speaking the
  binary wire codec over length-prefixed loopback TCP, with
  monotonic-clock timers and measured (not modeled) CPU time.

:mod:`repro.runtime.conformance` runs the same workload through both
and asserts the committed ledgers agree — the simulator's results are
only trustworthy because this oracle ties them to a real network stack.

Only ``api`` is re-exported here: importing a backend pulls in its
machinery, so callers name the backend they want explicitly.
"""

from repro.runtime.api import (
    ClockSource,
    Cpu,
    Runtime,
    TimerHandle,
    Transport,
)

__all__ = [
    "ClockSource",
    "Cpu",
    "Runtime",
    "TimerHandle",
    "Transport",
]
