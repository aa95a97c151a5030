"""Request batching and pipelining for the SeeMoRe primary.

The paper's throughput results rely on the primary amortizing the cost of
one agreement round over many client requests.  This module implements that
lever for all three modes:

* :class:`BatchPolicy` — the knobs: how large a batch may grow
  (``max_batch``), how long the primary may wait for a batch to fill
  (``linger``, on the runtime's clock), and how many proposals may be in
  flight at once (``pipeline_depth``).
* :class:`Batcher` — the per-primary engine: it buffers validated client
  requests, cuts them into :class:`~repro.smr.messages.Batch` payloads
  according to the policy, and hands each payload to the replica, which
  proposes it in the current mode.  A batch of one is proposed as the bare
  request, so a deployment with the default policy behaves exactly like the
  unbatched protocol.  An under-full batch is held only while the observed arrival
  rate expects another request before the linger runs out; at a low
  offered rate every request is proposed on arrival.

The batcher is deliberately decoupled from the replica: it only needs a
clock, a timer factory and a ``propose`` callback, which keeps it
unit-testable (including under Hypothesis) without standing up a replica
group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.smr.messages import Batch, Request

ProposeFn = Callable[[Any], Optional[int]]
TimerFactory = Callable[[Callable[[], None]], Any]
Clock = Callable[[], float]


@dataclass(frozen=True)
class BatchPolicy:
    """How a primary groups client requests into consensus slots.

    Attributes:
        max_batch: maximum requests per batch.  ``1`` (the default)
            reproduces the unbatched protocol exactly.
        linger: how long (runtime seconds) the primary may hold an
            under-full batch waiting for more requests.  It is held only
            while requests arrive faster than one per ``linger``; ``0``
            proposes immediately on arrival.
        pipeline_depth: maximum number of proposed-but-uncommitted slots
            the primary keeps in flight.  ``None`` (the default) leaves
            pipelining bounded only by the watermark window, as in the
            unbatched protocol.  A small bound makes arrival bursts
            accumulate into fuller batches while earlier slots commit.
    """

    max_batch: int = 1
    linger: float = 0.0
    pipeline_depth: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be at least 1, got {self.max_batch}")
        if self.linger < 0:
            raise ValueError(f"linger cannot be negative: {self.linger}")
        if self.pipeline_depth is not None and self.pipeline_depth < 1:
            raise ValueError(f"pipeline_depth must be at least 1, got {self.pipeline_depth}")

    @property
    def batching_enabled(self) -> bool:
        return self.max_batch > 1 or self.linger > 0 or self.pipeline_depth is not None


class Batcher:
    """Buffers validated requests at the primary and proposes batches.

    The owning replica enqueues every request it would previously have
    proposed directly.  The batcher flushes according to its policy:

    * a batch is cut as soon as it holds ``max_batch`` requests;
    * an under-full batch is cut at once when the smoothed gap between
      fresh arrivals is at least ``linger`` (the next request is not
      expected before the timer would fire), and otherwise when the linger
      timer fires;
    * with ``linger == 0`` every arrival flushes immediately;
    * no batch is cut while ``pipeline_depth`` proposals are uncommitted —
      arrivals accumulate until a slot commits.

    Requests stay queued (and are retried) when a proposal is refused, e.g.
    during a view change or when the watermark window is full.
    """

    def __init__(
        self,
        policy: BatchPolicy,
        timer_factory: TimerFactory,
        propose: ProposeFn,
        clock: Clock,
    ) -> None:
        self.policy = policy
        self._propose = propose
        self._clock = clock
        self._queue: List[Request] = []
        self._queued_keys: set = set()
        self._in_flight: set = set()
        self._paused = False
        self._linger_timer = timer_factory(self._on_linger)
        # Smoothed gap between fresh arrivals (newest sample weighted 1/8),
        # each sample capped at twice the linger so one idle spell cannot
        # disable batching for the burst after it.  It stays 0 when
        # ``linger == 0``.
        self._arrival_gap = 0.0
        self._last_arrival: Optional[float] = None
        # Telemetry consumed by benchmarks and the metrics collector.
        self.batches_proposed = 0
        self.requests_enqueued = 0
        self.proposed_batch_sizes: List[int] = []

    # -- introspection -------------------------------------------------------

    @property
    def queued(self) -> int:
        """Requests buffered but not yet proposed."""
        return len(self._queue)

    @property
    def in_flight(self) -> int:
        """Proposals awaiting commit."""
        return len(self._in_flight)

    def queued_requests(self) -> List[Request]:
        return list(self._queue)

    def mean_batch_size(self) -> float:
        if not self.proposed_batch_sizes:
            return 0.0
        return sum(self.proposed_batch_sizes) / len(self.proposed_batch_sizes)

    # -- intake --------------------------------------------------------------

    def enqueue(self, request: Request) -> bool:
        """Buffer one validated request; returns False for duplicates.

        A duplicate (a client retransmission of something still queued)
        also pumps: after a refused flush it is the retry trigger that
        keeps the queue moving.
        """
        key = (request.client_id, request.timestamp)
        if key in self._queued_keys:
            self._pump()
            return False
        if self.policy.linger:
            self._observe_arrival()
        self._queue.append(request)
        self._queued_keys.add(key)
        self.requests_enqueued += 1
        self._pump()
        return True

    # -- lifecycle hooks from the replica -----------------------------------

    def pump(self) -> None:
        """Retry flushing; the replica calls this whenever proposal room may
        have opened up (commits, checkpoint stabilization, new view)."""
        self._pump()

    def pause(self) -> None:
        """Suspend flushing while a new view is being installed.

        Commits replayed from a NEW-VIEW message fire :meth:`on_slot_committed`
        mid-installation; proposing then would race the re-proposal loop
        (and, on a demoted primary, sign ordering messages it has no right
        to send).  Enqueues still buffer; :meth:`resume` pumps them.
        """
        self._paused = True
        self._linger_timer.stop()

    def resume(self) -> None:
        """Lift :meth:`pause` and flush whatever accumulated."""
        self._paused = False
        self._pump()

    def on_slot_committed(self, sequence: int) -> None:
        """A slot committed: free its pipeline slot (if ours) and retry —
        any commit can unblock a proposal that was refused earlier."""
        self._in_flight.discard(sequence)
        self._pump()

    def forget_in_flight_below(self, sequence: int) -> None:
        """Drop in-flight tracking for slots at or below ``sequence``.

        Used after a state-transfer snapshot adoption: those slots committed
        (elsewhere) without this batcher ever seeing the commit, and leaking
        them would permanently shrink a bounded pipeline.
        """
        self._in_flight = {seq for seq in self._in_flight if seq > sequence}
        self._pump()

    def reset_in_flight(self) -> None:
        """Forget proposals from an abandoned view (new-view re-proposes them)."""
        self._in_flight.clear()

    def adopt_in_flight(self, sequences) -> None:
        """Count already-proposed uncommitted slots against the pipeline bound.

        A new primary inherits the slots the NEW-VIEW message re-proposed
        (they bypassed this batcher); without adopting them, ``pipeline_depth``
        would be exceeded by fresh proposals on top of the inherited ones.
        """
        self._in_flight.update(sequences)

    def drain(self) -> List[Request]:
        """Remove and return everything buffered (view/mode change hand-off)."""
        self._linger_timer.stop()
        drained = self._queue
        self._queue = []
        self._queued_keys.clear()
        return drained

    # -- flushing ------------------------------------------------------------

    def _observe_arrival(self) -> None:
        now = self._clock()
        if self._last_arrival is not None:
            sample = min(now - self._last_arrival, 2 * self.policy.linger)
            self._arrival_gap += (sample - self._arrival_gap) / 8
        self._last_arrival = now

    def _pipeline_open(self) -> bool:
        depth = self.policy.pipeline_depth
        return depth is None or len(self._in_flight) < depth

    def _pump(self) -> None:
        """Flush as many batches as the policy currently allows."""
        if self._paused:
            return
        while self._queue and self._pipeline_open():
            ready = (
                len(self._queue) >= self.policy.max_batch
                or self._arrival_gap >= self.policy.linger
            )
            if not ready:
                if not self._linger_timer.active:
                    self._linger_timer.start(self.policy.linger)
                return
            if not self._flush_one():
                return
        if not self._queue:
            self._linger_timer.stop()

    def _on_linger(self) -> None:
        """The linger window closed: propose whatever has accumulated."""
        if self._paused:
            return
        while self._queue and self._pipeline_open():
            if not self._flush_one():
                return

    def _flush_one(self) -> bool:
        count = min(len(self._queue), self.policy.max_batch)
        requests = self._queue[:count]
        payload: Any = requests[0] if count == 1 else Batch(requests=list(requests))
        sequence = self._propose(payload)
        if sequence is None:
            # Proposal refused (view change / watermark); keep everything
            # queued and let a later pump or the client's retransmission
            # drive progress.
            return False
        del self._queue[:count]
        for request in requests:
            self._queued_keys.discard((request.client_id, request.timestamp))
        self._in_flight.add(sequence)
        self.batches_proposed += 1
        self.proposed_batch_sizes.append(count)
        return True


__all__ = ["BatchPolicy", "Batcher"]
