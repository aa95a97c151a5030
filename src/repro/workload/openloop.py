"""Open-loop workload engine: millions of modeled users, bounded memory.

The paper's evaluation (like most BFT evaluations) is *closed loop*: N
client objects each wait for a reply before sending again, so offered load
can never exceed service capacity and overload is unobservable.  Real
front-end traffic is *open loop*: users arrive according to an external
process and do not politely wait for each other, so a surge can offer more
load than the cluster can serve — which is exactly the regime admission
control (:mod:`repro.core.admission`) and latency SLOs
(:mod:`repro.workload.slo`) exist for.

This module models an open-loop population three ways at once:

* **arrival processes** (:class:`PoissonArrivals`, :class:`BurstyArrivals`,
  :class:`DiurnalArrivals`) — seed-deterministic generators of arrival
  *times*, so a run is exactly reproducible;
* **virtual users** (:class:`ClientPopulation`) — an O(1)-memory sampler
  decides *which* of millions of modeled users each arrival belongs to
  (Zipfian by default: real populations are skewed), without ever
  materializing a per-user object;
* **a bounded connection pool** (:class:`OpenLoopDriver` multiplexing
  arrivals over a few :class:`OpenLoopConnection` objects) — memory is
  O(active requests + bounded backlog), never O(users).

The latency clock of every request starts at its *arrival*, not at the
moment a connection picks it up, so queueing behind the pool counts toward
the measured percentiles — the honesty property that distinguishes
open-loop from closed-loop measurement (closed-loop numbers silently hide
that queueing as "think time").
"""

from __future__ import annotations

import math
import random
from collections import OrderedDict, deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.runtime.api import Runtime
from repro.shard.client import ShardedClient
from repro.smr.client import Client
from repro.smr.state_machine import Operation
from repro.workload.generator import Workload

OperationSource = Callable[[int], Operation]


# -- arrival processes --------------------------------------------------------


class ArrivalProcess:
    """Deterministic stream of arrival times (simulated seconds).

    Subclasses define an instantaneous rate curve (:meth:`rate_at`, in
    requests per second) bounded by :meth:`peak_rate`; the base class turns
    the curve into a sample path by Lewis–Shedler thinning: candidate
    arrivals are drawn from a homogeneous Poisson process at the peak rate
    and accepted with probability ``rate_at(t) / peak_rate``.  The whole
    path is a pure function of the seed.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(0x9E3779B1 ^ (seed * 2_654_435_761 + 1))

    def rate_at(self, t: float) -> float:
        """Instantaneous mean arrival rate at time ``t`` (requests/second)."""
        raise NotImplementedError

    def peak_rate(self) -> float:
        """An upper bound on :meth:`rate_at` over all ``t``."""
        raise NotImplementedError

    def next_after(self, t: float) -> float:
        """The next arrival time strictly after ``t`` (thinning sampler)."""
        peak = self.peak_rate()
        rng = self._rng
        while True:
            t += rng.expovariate(peak)
            if rng.random() * peak <= self.rate_at(t):
                return t


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals: i.i.d. exponential inter-arrival times."""

    def __init__(self, rate: float, seed: int = 0) -> None:
        if rate <= 0:
            raise ValueError(f"arrival rate must be positive: {rate}")
        super().__init__(seed)
        self.rate = rate

    def rate_at(self, t: float) -> float:
        return self.rate

    def peak_rate(self) -> float:
        return self.rate

    def next_after(self, t: float) -> float:
        # Constant rate: sample the exponential directly, no thinning loop.
        return t + self._rng.expovariate(self.rate)


class BurstyArrivals(ArrivalProcess):
    """On/off modulated Poisson arrivals (a deterministic burst schedule).

    The rate alternates between ``burst_rate`` (for ``on_duration`` seconds)
    and ``base_rate`` (for ``off_duration`` seconds), starting in the burst
    phase at ``t = 0``.  The phase schedule is deterministic — only the
    arrival times within each phase are random — so experiments can place a
    surge exactly where they want it.
    """

    def __init__(
        self,
        base_rate: float,
        burst_rate: float,
        on_duration: float,
        off_duration: float,
        seed: int = 0,
    ) -> None:
        if base_rate < 0:
            raise ValueError(f"base rate cannot be negative: {base_rate}")
        if burst_rate <= 0 or burst_rate < base_rate:
            raise ValueError(
                f"burst rate must be positive and >= base rate: {burst_rate} vs {base_rate}"
            )
        if on_duration <= 0 or off_duration <= 0:
            raise ValueError("phase durations must be positive")
        super().__init__(seed)
        self.base_rate = base_rate
        self.burst_rate = burst_rate
        self.on_duration = on_duration
        self.off_duration = off_duration

    def rate_at(self, t: float) -> float:
        phase = t % (self.on_duration + self.off_duration)
        return self.burst_rate if phase < self.on_duration else self.base_rate

    def peak_rate(self) -> float:
        return self.burst_rate


class DiurnalArrivals(ArrivalProcess):
    """A sinusoidal day/night rate curve integrating to ``daily_volume``.

    The rate at time ``t`` is ``mean * (1 - amplitude * cos(2πt / day))``
    with ``mean = daily_volume / day_length``: the trough sits at ``t = 0``
    (midnight), the peak at mid-day, and because the cosine integrates to
    zero over a full day the expected number of arrivals per day is exactly
    ``daily_volume`` for any amplitude in [0, 1].
    """

    def __init__(
        self,
        daily_volume: float,
        day_length: float = 86_400.0,
        amplitude: float = 0.8,
        seed: int = 0,
    ) -> None:
        if daily_volume <= 0:
            raise ValueError(f"daily volume must be positive: {daily_volume}")
        if day_length <= 0:
            raise ValueError(f"day length must be positive: {day_length}")
        if not 0.0 <= amplitude <= 1.0:
            raise ValueError(f"amplitude must be in [0, 1]: {amplitude}")
        super().__init__(seed)
        self.daily_volume = daily_volume
        self.day_length = day_length
        self.amplitude = amplitude
        self.mean_rate = daily_volume / day_length

    def rate_at(self, t: float) -> float:
        phase = (t % self.day_length) / self.day_length
        return self.mean_rate * (1.0 - self.amplitude * math.cos(2.0 * math.pi * phase))

    def peak_rate(self) -> float:
        return self.mean_rate * (1.0 + self.amplitude)


# -- virtual users ------------------------------------------------------------


class _ZipfSampler:
    """O(1)-memory Zipf(theta) sampler over ranks ``[0, n)`` (Gray et al.).

    The approximate-inversion sampler of "Quickly Generating Billion-Record
    Synthetic Databases": constant work per sample, no cumulative table.
    The zeta normalizer sums the first ``_EXACT_TERMS`` terms exactly and
    integral-approximates the tail, so construction is O(1) in ``n`` too —
    the property that lets a million-user population exist in a few hundred
    bytes (contrast the cumulative-inversion key sampler in
    :class:`repro.workload.generator.KeyValueWorkload`, which is exact but
    O(key_space), fine for a thousand keys and fatal for a million users).
    """

    _EXACT_TERMS = 10_000

    def __init__(self, n: int, theta: float) -> None:
        if n < 2:
            raise ValueError(f"zipf needs at least two ranks: {n}")
        if not 0.0 < theta < 1.0:
            raise ValueError(f"zipf theta must be in (0, 1): {theta}")
        self.n = n
        self.theta = theta
        self.zetan = self._zeta(n, theta)
        self.zeta2 = 1.0 + 0.5**theta
        self.alpha = 1.0 / (1.0 - theta)
        self.eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (1.0 - self.zeta2 / self.zetan)

    @classmethod
    def _zeta(cls, n: int, theta: float) -> float:
        exact = min(n, cls._EXACT_TERMS)
        total = 0.0
        for rank in range(1, exact + 1):
            total += rank**-theta
        if n > exact:
            # Integral tail: sum_{exact+1..n} x^-theta ~= ∫_exact^n x^-theta dx.
            total += (n ** (1.0 - theta) - exact ** (1.0 - theta)) / (1.0 - theta)
        return total

    def sample(self, rng: random.Random) -> int:
        u = rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            return 0
        if uz < self.zeta2:
            return 1
        return min(self.n - 1, int(self.n * (self.eta * u - self.eta + 1.0) ** self.alpha))


class ClientPopulation:
    """Millions of modeled users as an arrival process — O(1) state.

    A population is *not* a collection of client objects: it is a stream of
    ``(arrival_time, user_id)`` events, where the arrival times come from
    an :class:`ArrivalProcess` and the user ids from a constant-memory
    sampler over ``[0, num_users)``.  Rank 0 is the most active user under
    the default Zipfian distribution.  Everything is a pure function of
    the seeds, so two runs with equal configuration see the identical
    event stream.
    """

    def __init__(
        self,
        num_users: int,
        arrivals: ArrivalProcess,
        seed: int = 0,
        user_distribution: str = "zipfian",
        zipf_theta: float = 0.99,
    ) -> None:
        if num_users < 1:
            raise ValueError(f"population needs at least one user: {num_users}")
        self.num_users = num_users
        self.arrivals = arrivals
        self.seed = seed
        self._rng = random.Random(seed * 48_271 + 11)
        if user_distribution == "zipfian":
            sampler = _ZipfSampler(max(2, num_users), zipf_theta)
            self._sample_user = lambda: sampler.sample(self._rng) % num_users
        elif user_distribution == "uniform":
            self._sample_user = lambda: self._rng.randrange(num_users)
        else:
            raise ValueError(
                f"unknown user distribution {user_distribution!r}; "
                f"choose 'uniform' or 'zipfian'"
            )
        self._clock = 0.0

    def next_event(self) -> Tuple[float, int]:
        """``(arrival_time, user_id)`` of the next request; monotone in time."""
        self._clock = self.arrivals.next_after(self._clock)
        return self._clock, self._sample_user()


def workload_operation_source(workload: Workload, cache_size: int = 1024) -> OperationSource:
    """Per-user operation streams over ``workload``, bounded by an LRU cache.

    ``workload.operation_factory(client_seed=user)`` gives each user a
    deterministic operation stream (reusing the existing key-distribution
    machinery, Zipfian keys included).  The LRU keeps at most
    ``cache_size`` live streams, so a skew-hot population pays the factory
    construction cost only on cold users and memory stays O(cache_size),
    not O(users).
    """
    if cache_size < 1:
        raise ValueError(f"cache size must be positive: {cache_size}")
    streams: "OrderedDict[int, list]" = OrderedDict()

    def source(user_id: int) -> Operation:
        entry = streams.get(user_id)
        if entry is None:
            entry = [workload.operation_factory(client_seed=user_id), 0]
            streams[user_id] = entry
            if len(streams) > cache_size:
                streams.popitem(last=False)
        else:
            streams.move_to_end(user_id)
        entry[1] += 1
        return entry[0](entry[1])

    return source


# -- the driver ---------------------------------------------------------------


class OpenLoopConnection(Client):
    """One real connection multiplexing many virtual users' requests.

    A thin :class:`~repro.smr.client.Client` subclass that pulls
    ``(operation, arrival_time)`` items from its driver's backlog instead
    of generating a closed loop, and stamps each latency record with the
    request's *arrival* time.  Give-up-after-N-``Busy``-rejects (the
    config's ``max_busy_retries``) reports shed requests to the driver.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.driver: Optional["OpenLoopDriver"] = None
        self._current_arrival: Optional[float] = None

    def _next_operation(self, timestamp: int) -> Optional[Operation]:
        driver = self.driver
        if driver is None:
            return None
        item = driver._pop()
        if item is None:
            return None
        operation, arrival = item
        self._current_arrival = arrival
        return operation

    def _sent_time(self) -> float:
        arrival = self._current_arrival
        if arrival is None:
            return self.now
        self._current_arrival = None
        return arrival

    def on_shed(self, timestamp: int) -> None:
        if self.driver is not None:
            self.driver.shed += 1
        super().on_shed(timestamp)


class RoutedOpenLoopConnection(OpenLoopConnection, ShardedClient):
    """The same connection over a session per shard.

    No behaviour of its own: the three hooks above are the ones
    :meth:`ShardedClient._issue_next` draws from, so pulling arrivals
    composes with routing, the logical window and the 2PC coordinator.
    """


class OpenLoopDriver:
    """Feeds a :class:`ClientPopulation` through a bounded connection pool.

    Each arrival lands in a bounded backlog (full backlog ⇒ the arrival is
    *dropped* and counted); idle connections drain the backlog, one request
    per free window slot.  Three counters tell the overload story:

    * ``offered`` — arrivals the population generated;
    * ``dropped`` — arrivals discarded because the backlog was full (client
      -side queue overflow; these never reached the cluster);
    * ``shed`` — requests abandoned after ``max_busy_retries`` consecutive
      signed ``Busy`` rejects from an admission-controlled primary.

    Dropped and shed requests record **no latency sample** — an overloaded
    system's served-latency percentiles stay honest, and the excess shows
    up in the counters where an SLO report can see it.
    """

    def __init__(
        self,
        runtime: Runtime,
        population: ClientPopulation,
        connections: List[OpenLoopConnection],
        operation_source: OperationSource,
        max_backlog: int = 10_000,
    ) -> None:
        if not connections:
            raise ValueError("an open-loop driver needs at least one connection")
        if max_backlog < 1:
            raise ValueError(f"backlog bound must be positive: {max_backlog}")
        self.runtime = runtime
        self.population = population
        self.connections = list(connections)
        self.operation_source = operation_source
        self.max_backlog = max_backlog
        self._backlog: Deque[Tuple[float, int]] = deque()
        self.offered = 0
        self.dropped = 0
        self.shed = 0
        self._pending_event: Optional[Tuple[float, int]] = None
        self._stopped = True
        self._timer = self.runtime.timer(self._on_arrival, label="openloop-arrivals")
        for connection in self.connections:
            connection.driver = self

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Start generating arrivals (and the connections, if not started)."""
        self._stopped = False
        for connection in self.connections:
            connection.start()
        self._advance()

    def stop(self) -> None:
        self._stopped = True
        self._timer.stop()
        for connection in self.connections:
            connection.stop()

    # -- introspection -------------------------------------------------------

    @property
    def backlog_depth(self) -> int:
        return len(self._backlog)

    @property
    def active_requests(self) -> int:
        """Requests currently in flight across the connection pool."""
        return sum(connection.outstanding_count for connection in self.connections)

    @property
    def completed(self) -> int:
        return sum(connection.completed_count for connection in self.connections)

    @property
    def busy_rejects(self) -> int:
        return sum(connection.busy_rejects for connection in self.connections)

    def stats(self) -> dict:
        """Flat counters for reports: offered / completed / dropped / shed."""
        return {
            "offered": self.offered,
            "completed": self.completed,
            "dropped": self.dropped,
            "shed": self.shed,
            "busy_rejects": self.busy_rejects,
            "backlog_depth": self.backlog_depth,
            "active_requests": self.active_requests,
        }

    # -- arrival pump --------------------------------------------------------

    def _advance(self) -> None:
        if self._stopped:
            return
        event = self.population.next_event()
        self._pending_event = event
        self._timer.start(max(0.0, event[0] - self.runtime.now))

    def _on_arrival(self) -> None:
        if self._stopped:
            return
        event = self._pending_event
        if event is None:
            return
        self._pending_event = None
        self.offered += 1
        if len(self._backlog) >= self.max_backlog:
            self.dropped += 1
        else:
            self._backlog.append(event)
            self._kick()
        self._advance()

    def _kick(self) -> None:
        """Wake one connection with a free window slot, if any.

        Connections whose windows are full drain the backlog on their own
        as completions free slots (``_complete`` refills the window, which
        pulls from the backlog via :meth:`OpenLoopConnection._next_operation`).
        """
        for connection in self.connections:
            # Only the connection knows whether a slot is free: a routed one
            # counts logical requests, not the sub-requests of a transaction.
            if connection._issue_next():
                connection._fill_window()
                return

    def _pop(self) -> Optional[Tuple[Operation, float]]:
        """Hand one backlog item to a connection: ``(operation, arrival_time)``."""
        if not self._backlog:
            return None
        arrival_time, user_id = self._backlog.popleft()
        return self.operation_source(user_id), arrival_time


__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "BurstyArrivals",
    "DiurnalArrivals",
    "ClientPopulation",
    "OpenLoopConnection",
    "RoutedOpenLoopConnection",
    "OpenLoopDriver",
    "workload_operation_source",
]
