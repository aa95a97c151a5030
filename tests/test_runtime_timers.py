"""Timer semantics are identical on every runtime backend.

The :class:`repro.runtime.api.TimerHandle` contract (idempotent stop,
restart racing expiry, disarm-before-fire, timers surviving a CPU crash)
is what the protocol's view-change and retransmission logic leans on.
Each scenario here runs once per backend through a shared driver: the sim
backend advances virtual time, the aio backend runs the real event loop
for a fraction of a second, and the proc backend runs the same scenario
inside a supervised worker process (results are snapshotted to picklable
stand-ins before crossing the process boundary).

Below them, what makes a timer fire *on time* on the two TCP backends: the
selector behind :func:`repro.runtime.aio.new_event_loop`, driven by hand
against a socket pair with the three calls it makes (``epoll.poll``,
``select.select``, the clock) recorded, and one ``slow`` measurement of how
late a timer fires on the runtime's loop and on a stock one.
"""

import asyncio
import multiprocessing
import selectors
import socket
import statistics
import time
import types

import pytest

from repro.net.network import Network
from repro.runtime import aio
from repro.runtime.aio import AioRuntime
from repro.runtime.sim import SimRuntime
from repro.sim.simulator import Simulator

#: One virtual/real time unit per backend.  The real-clock units are large
#: enough that scheduling jitter (event-loop or cross-process) cannot
#: reorder arm/fire boundaries.
UNIT = {"sim": 1.0, "aio": 0.05, "proc": 0.1}

BACKENDS = [
    "sim",
    "aio",
    pytest.param(
        "proc",
        marks=pytest.mark.skipif(
            "fork" not in multiprocessing.get_all_start_methods(),
            reason="proc timer scenarios pass closures via fork",
        ),
    ),
]


class CpuSnapshot:
    """Picklable stand-in for a worker process's Cpu, same stats surface."""

    def __init__(self, cpu):
        self.crashed = cpu.crashed
        self.busy_time = cpu.busy_time
        self.items_processed = cpu.items_processed
        self.queue_depth = cpu.queue_depth

    def utilisation(self, elapsed=None):
        if not elapsed or elapsed <= 0:
            return 0.0
        return self.busy_time / elapsed


def _snapshot_result(value):
    if isinstance(value, tuple):
        return tuple(_snapshot_result(item) for item in value)
    if hasattr(value, "busy_time"):
        return CpuSnapshot(value)
    return value


def _probe_worker(runtime, setup, unit):
    """Run one timer scenario inside a proc worker (fork: closures pass)."""
    from repro.runtime.proc import WorkerPlan

    state = {}

    def kickoff():
        state["result"] = setup(runtime, unit)

    return WorkerPlan(
        kickoff=kickoff, harvest=lambda: _snapshot_result(state.get("result"))
    )


def new_runtime(backend):
    """A fresh in-process runtime: a simulator and its network, or one event loop."""
    if backend == "aio":
        return AioRuntime()
    simulator = Simulator()
    return SimRuntime(simulator, Network(simulator))


def drive(backend, setup, duration_units):
    """Build a runtime, let ``setup`` arm timers, run for ``duration_units``.

    ``setup(runtime, unit)`` runs inside the backend's scheduling context
    (the run's kickoff for sim/aio, the worker's kickoff for proc) and may
    return a state object that the test inspects afterwards.
    """
    unit = UNIT[backend]
    state = {}
    if backend in ("sim", "aio"):
        runtime = new_runtime(backend)

        def kickoff():
            state["result"] = setup(runtime, unit)

        runtime.run(kickoff=kickoff, timeout=duration_units * unit)
    else:
        from repro.runtime.proc import ProcCluster, WorkerSpec

        cluster = ProcCluster(
            [
                WorkerSpec(
                    name="probe",
                    build=_probe_worker,
                    kwargs={"setup": setup, "unit": unit},
                )
            ],
            start_method="fork",
            stats_interval=30.0,
        )
        result = cluster.run(timeout=duration_units * unit, grace=20.0)
        assert result.met, (result.deaths, result.errors)
        state["result"] = result.harvests["probe"]
    return state["result"]


@pytest.mark.parametrize("backend", BACKENDS)
class TestTimerContract:
    def test_fires_once_after_delay(self, backend):
        def setup(runtime, unit):
            fired = []
            timer = runtime.timer(lambda: fired.append(runtime.now), label="t")
            timer.start(1 * unit)
            return fired

        fired = drive(backend, setup, 3)
        assert len(fired) == 1

    def test_stop_is_idempotent_and_safe_unarmed(self, backend):
        def setup(runtime, unit):
            fired = []
            timer = runtime.timer(lambda: fired.append(1), label="t")
            timer.stop()  # never started
            timer.stop()
            timer.start(1 * unit)
            timer.stop()
            timer.stop()  # stop twice after arming
            assert not timer.active
            return fired

        fired = drive(backend, setup, 3)
        assert fired == []

    def test_restart_supersedes_previous_arming(self, backend):
        def setup(runtime, unit):
            fired = []
            timer = runtime.timer(lambda: fired.append(1), label="t")
            timer.start(1 * unit)
            # Re-arm before expiry: only the later deadline may fire.
            runtime.call_later(0.5 * unit, lambda: timer.restart(2 * unit))
            return fired

        fired = drive(backend, setup, 5)
        assert len(fired) == 1

    def test_fire_disarms_before_callback_so_it_can_rearm(self, backend):
        def setup(runtime, unit):
            fired = []
            holder = {}

            def on_fire():
                fired.append(runtime.now)
                assert not holder["timer"].active  # disarmed before callback
                if len(fired) < 3:
                    holder["timer"].start(0.5 * unit)

            holder["timer"] = runtime.timer(on_fire, label="t")
            holder["timer"].start(0.5 * unit)
            return fired

        fired = drive(backend, setup, 5)
        assert len(fired) == 3

    def test_stop_after_fire_is_safe(self, backend):
        def setup(runtime, unit):
            fired = []
            timer = runtime.timer(lambda: fired.append(1), label="t")
            timer.start(0.5 * unit)
            # Stop long after the expiry already fired: must be a no-op.
            runtime.call_later(2 * unit, timer.stop)
            return fired

        fired = drive(backend, setup, 4)
        assert fired == [1]

    def test_timer_fires_after_cpu_crash(self, backend):
        """Timers belong to the runtime, not the CPU: a crashed node's
        timers still fire (protocol callbacks guard on the crash flag
        themselves, as they always did under the simulator)."""

        def setup(runtime, unit):
            cpu = runtime.create_cpu("n0")
            fired = []
            timer = runtime.timer(lambda: fired.append(cpu.crashed), label="t")
            timer.start(1 * unit)
            cpu.crash()
            return fired

        fired = drive(backend, setup, 3)
        assert fired == [True]


@pytest.mark.parametrize("backend", BACKENDS)
class TestCpuAccounting:
    """Both backends account CPU work into the same stats fields: the sim
    charges the modeled cost, the aio backend measures real elapsed time —
    either way ``busy_time``/``items_processed``/``utilisation`` exist and
    move when work runs."""

    def test_submitted_work_runs_and_is_accounted(self, backend):
        def setup(runtime, unit):
            cpu = runtime.create_cpu("n0")
            ran = []
            for index in range(3):
                cpu.submit(0.1 * unit, ran.append, (index,))
            return (cpu, ran)

        cpu, ran = drive(backend, setup, 3)
        assert ran == [0, 1, 2]
        assert cpu.items_processed == 3
        if backend == "sim":
            # Modeled cost is exact on the virtual clock.
            assert cpu.busy_time == pytest.approx(0.3 * UNIT["sim"])
        else:
            # Real elapsed time: positive, but no exactness to promise.
            assert cpu.busy_time >= 0.0
        assert cpu.utilisation(elapsed=10.0) >= 0.0

    def test_crashed_cpu_drops_work_silently(self, backend):
        def setup(runtime, unit):
            cpu = runtime.create_cpu("n0")
            ran = []
            cpu.crash()
            cpu.submit(0.1 * unit, ran.append, (1,))
            return (cpu, ran)

        cpu, ran = drive(backend, setup, 3)
        assert ran == []
        assert cpu.crashed


@pytest.mark.parametrize("backend", BACKENDS)
def test_call_later_returns_a_stoppable_handle(backend):
    def setup(runtime, unit):
        fired = []
        handle = runtime.call_later(1 * unit, lambda: fired.append(1))
        runtime.call_later(0.4 * unit, handle.stop)
        return fired

    assert drive(backend, setup, 3) == []


@pytest.mark.parametrize("backend", ["sim", "aio"])
class TestRunContract:
    """``Runtime.run(kickoff, until, timeout)`` means the same on both in-process backends."""

    def test_kickoff_runs_once_inside_the_run(self, backend):
        runtime = new_runtime(backend)
        unit = UNIT[backend]
        kicked, fired = [], []

        def kickoff():
            kicked.append(runtime.now)
            runtime.call_later(1 * unit, lambda: fired.append(runtime.now))

        assert runtime.run(kickoff=kickoff, timeout=3 * unit) is True
        assert len(kicked) == 1 and len(fired) == 1

    def test_a_predicate_that_never_holds_times_out(self, backend):
        runtime = new_runtime(backend)
        timeout = 2 * UNIT[backend]
        before, started = runtime.now, time.monotonic()
        assert runtime.run(until=lambda: False, timeout=timeout) is False
        if backend == "sim":
            assert runtime.now == before + timeout
        else:
            assert time.monotonic() - started >= timeout

    def test_a_predicate_that_holds_is_met(self, backend):
        runtime = new_runtime(backend)
        assert runtime.run(until=lambda: True, timeout=UNIT[backend]) is True


@pytest.mark.parametrize("backend", ["sim", "aio"])
class TestNegativeTimesAreRefused:
    """Both in-process backends refuse a time in the past before anything runs."""

    def test_a_negative_timeout_is_refused_before_kickoff(self, backend):
        kicked = []
        with pytest.raises(ValueError, match="timeout must not be negative: -0.1"):
            new_runtime(backend).run(kickoff=lambda: kicked.append(1), timeout=-0.1)
        assert kicked == []

    def test_a_negative_delay_is_refused(self, backend):
        def setup(runtime, unit):
            fired, refused = [], []
            arms = (
                lambda: runtime.call_later(-unit, lambda: fired.append("call_later")),
                lambda: runtime.timer(lambda: fired.append("timer")).start(-unit),
            )
            for arm in arms:
                try:
                    arm()
                except ValueError as error:
                    refused.append(str(error))
            return fired, refused

        fired, refused = drive(backend, setup, 2)
        assert fired == []
        assert refused == [f"cannot schedule an event in the past: delay={-UNIT[backend]}"] * 2


# -- the selector under the TCP backends' loop ---------------------------------------------------

needs_epoll = pytest.mark.skipif(aio._TimelySelector is None, reason="no epoll on this platform")


class _Waits:
    """A ``_TimelySelector`` watching one end of a socket pair, and what it asks the kernel.

    ``epoll.poll`` and ``select.select`` are wrapped to record the timeout
    they were given and to return at once; the time they were asked to wait
    (plus ``overrun`` for ``epoll``) passes on a clock the test owns instead.
    ``during_select`` runs inside the ``select`` call, before the kernel is asked.
    """

    def __init__(self, monkeypatch, overrun=0.0, during_select=None):
        self.near, self.far = socket.socketpair()
        self.selector = aio._TimelySelector()
        self.key = self.selector.register(self.near, selectors.EVENT_READ, "near")
        self.polls, self.selects, self.now = [], [], 50.0
        epoll, real_select = self.selector._selector, aio.select.select

        def poll(timeout, maxevents):
            self.polls.append(timeout)
            ready = epoll.poll(0, maxevents)
            if timeout > 0 and not ready:
                self.now += timeout + overrun
            return ready

        def select(readers, writers, exceptional, timeout):
            self.selects.append(timeout)
            if during_select is not None:
                during_select(self)
            ready = real_select(readers, writers, exceptional, 0)
            if not ready[0]:
                self.now += timeout
            return ready

        self.selector._selector = types.SimpleNamespace(
            poll=poll, fileno=epoll.fileno, close=epoll.close
        )
        monkeypatch.setattr(aio.select, "select", select)
        monkeypatch.setattr(aio, "time", types.SimpleNamespace(monotonic=lambda: self.now))

    def close(self):
        self.selector.close()
        self.near.close()
        self.far.close()

    def stock(self):
        """What a stock ``EpollSelector`` watching the same socket reports right now."""
        with selectors.EpollSelector() as stock:
            stock.register(self.near, selectors.EVENT_READ, "near")
            return stock.select(0)


@pytest.fixture
def waits(monkeypatch):
    made = []

    def make(**kwargs):
        made.append(_Waits(monkeypatch, **kwargs))
        return made[-1]

    yield make
    for each in made:
        each.close()


@needs_epoll
class TestTimelySelector:
    def test_whole_milliseconds_wait_in_epoll_and_the_rest_in_select(self, waits):
        w = waits()
        assert w.selector.select(0.0023) == []
        assert w.polls == [0.002]  # exactly, where the stock selector asks for 0.003
        assert w.selects == [pytest.approx(0.0003)]
        assert w.now - 50.0 == pytest.approx(0.0023)

    def test_what_the_epoll_wait_ran_over_comes_off_the_select_wait(self, waits):
        w = waits(overrun=0.0001)
        assert w.selector.select(0.0023) == []
        assert (w.polls, w.selects) == ([0.002], [pytest.approx(0.0002)])
        late = waits(overrun=0.0005)
        assert late.selector.select(0.0023) == []
        assert (late.polls, late.selects) == ([0.002], [])  # already past due: one system call

    def test_a_wait_under_a_millisecond_is_one_select_call(self, waits):
        w = waits()
        assert w.selector.select(0.0004) == []
        assert (w.polls, w.selects) == ([], [0.0004])

    def test_a_byte_arriving_during_the_select_wait_is_reported_as_the_stock_selector_would(
        self, waits
    ):
        w = waits(during_select=lambda w: w.far.send(b"x"))
        ready = w.selector.select(0.0023)
        assert ready == [(w.key, selectors.EVENT_READ)] == w.stock()
        assert w.polls == [0.002, 0] and len(w.selects) == 1  # collected without waiting

    def test_ready_io_ends_the_epoll_wait_at_once(self, waits):
        w = waits()
        w.far.send(b"x")
        assert w.selector.select(0.0023) == w.stock() != []
        assert (w.polls, w.selects, w.now) == ([0.002], [], 50.0)

    @pytest.mark.parametrize("timeout, asked", [(None, -1), (0, 0), (-1.5, 0)])
    def test_an_untimed_or_zero_wait_is_the_stock_call(self, waits, timeout, asked):
        w = waits()
        w.far.send(b"x")  # or ``None`` would wait for ever
        assert w.selector.select(timeout) == w.stock()
        assert (w.polls, w.selects) == ([asked], [])

    def test_an_epoll_descriptor_select_cannot_name_keeps_the_stock_rounding(
        self, waits, monkeypatch
    ):
        w = waits()
        monkeypatch.setattr(aio._TimelySelector, "_FD_SETSIZE", w.selector.fileno())
        assert w.selector.select(0.0023) == []
        assert (w.polls, w.selects) == ([0.003], [])

    @pytest.mark.parametrize("milliseconds", [3, 9, 13, 57, 1000])
    def test_a_whole_number_of_milliseconds_is_not_rounded_up_to_the_next(
        self, waits, milliseconds
    ):
        """``0.009 * 1e3`` is ``9.000000000000002``: a naive ceiling would ask for 10.

        (What CPython then makes of ``9 * 1e-3`` seconds is its own: for one whole count in
        eight, 9 and 13 among them, ``epoll_wait`` is given one millisecond more, under the
        stock selector as under this one.  A run loop polls ``until`` every 2 ms, so no TCP
        backend ever waits that long in one call.)
        """
        w = waits()
        assert w.selector.select(milliseconds / 1e3) == []
        assert w.polls == [milliseconds * 1e-3]
        assert w.selects == [] or w.selects[0] < 1e-9

    def test_the_runtime_runs_on_it(self):
        loop = aio.new_event_loop()
        try:
            assert type(loop._selector) is aio._TimelySelector
        finally:
            loop.close()
        seen = []
        runtime = AioRuntime()
        runtime.run(
            kickoff=lambda: seen.append(type(asyncio.get_running_loop()._selector)), timeout=0.01
        )
        assert seen == [aio._TimelySelector]


def test_without_epoll_the_loop_is_the_platforms_default(monkeypatch):
    monkeypatch.setattr(aio, "_TimelySelector", None)
    loop, default = aio.new_event_loop(), asyncio.new_event_loop()
    try:
        assert type(loop) is type(default)
        assert type(loop._selector) is type(default._selector)
    finally:
        loop.close()
        default.close()
    fired = []
    runtime = AioRuntime()
    runtime.run(kickoff=lambda: runtime.call_later(0.01, lambda: fired.append(1)), timeout=0.05)
    assert fired == [1]


# -- how late a timer fires ----------------------------------------------------------------------

LATENESS_SAMPLES = 200


def _lateness_ms(call_later, clock, done):
    """Arm ``LATENESS_SAMPLES`` timers of 2.0 - 3.2 ms one after another; how late each fired."""
    late = []

    def arm():
        delay = 0.002 + (len(late) % 10) * 0.00013
        due = clock() + delay
        call_later(delay, lambda: fired(due))

    def fired(due):
        late.append((clock() - due) * 1e3)
        if len(late) < LATENESS_SAMPLES:
            arm()
        else:
            done()

    arm()
    return late


def _summary(late):
    ordered = sorted(late)
    return ordered[len(ordered) // 2], ordered[len(ordered) * 9 // 10], statistics.mean(ordered)


@pytest.mark.slow
@needs_epoll
def test_timers_on_the_runtimes_loop_fire_within_a_fraction_of_a_millisecond():
    """A measurement for the nightly log (run with ``-s``), gated loosely: the stock
    loop reads about 0.7 ms late at the median on the reference host, this one 0.1."""
    runtime = AioRuntime()
    ours = []
    runtime.run(
        kickoff=lambda: ours.append(_lateness_ms(runtime.call_later, time.monotonic, lambda: None)),
        until=lambda: len(ours[0]) >= LATENESS_SAMPLES,
        timeout=10.0,
    )

    async def on_a_stock_loop():
        loop, finished = asyncio.get_running_loop(), asyncio.Event()
        late = _lateness_ms(loop.call_later, loop.time, finished.set)
        await asyncio.wait_for(finished.wait(), 10.0)
        return late

    with asyncio.Runner(loop_factory=asyncio.new_event_loop) as runner:
        stock = runner.run(on_a_stock_loop())
    for name, late in (("runtime.aio loop", ours[0]), ("stock asyncio loop", stock)):
        assert len(late) == LATENESS_SAMPLES
        print(
            "\ntimer lateness on the %s: p50 %.3f ms, p90 %.3f ms, mean %.3f ms (%d timers)"
            % (name, *_summary(late), len(late))
        )
    assert _summary(ours[0])[0] < 0.4
