"""Unit tests for the sim backend's serial CPU (the simulated machine)."""

import pytest

from repro.net.network import Network
from repro.runtime.sim import SimRuntime
from repro.sim import Simulator


def new_cpu(sim):
    return SimRuntime(sim, Network(sim)).create_cpu("n0")


class TestSimCpu:
    def test_work_runs_after_cost(self):
        sim = Simulator()
        cpu = new_cpu(sim)
        done_at = []
        cpu.submit(2.0, lambda: done_at.append(sim.now))
        sim.run()
        assert done_at == [2.0]

    def test_work_is_serialized(self):
        sim = Simulator()
        cpu = new_cpu(sim)
        done_at = []
        cpu.submit(1.0, lambda: done_at.append(sim.now))
        cpu.submit(1.0, lambda: done_at.append(sim.now))
        cpu.submit(1.0, lambda: done_at.append(sim.now))
        sim.run()
        assert done_at == [1.0, 2.0, 3.0]

    def test_queue_depth_counts_waiting_items(self):
        sim = Simulator()
        cpu = new_cpu(sim)
        cpu.submit(1.0, lambda: None)
        cpu.submit(1.0, lambda: None)
        cpu.submit(1.0, lambda: None)
        assert cpu.queue_depth == 2  # one running, two waiting

    def test_negative_cost_rejected(self):
        sim = Simulator()
        cpu = new_cpu(sim)
        with pytest.raises(ValueError):
            cpu.submit(-1.0, lambda: None)

    def test_zero_cost_work_allowed(self):
        sim = Simulator()
        cpu = new_cpu(sim)
        done = []
        cpu.submit(0.0, lambda: done.append(True))
        sim.run()
        assert done == [True]

    def test_crash_drops_queued_work(self):
        sim = Simulator()
        cpu = new_cpu(sim)
        done = []
        cpu.submit(1.0, lambda: done.append("a"))
        cpu.submit(1.0, lambda: done.append("b"))
        sim.call_later(0.5, cpu.crash)
        sim.run()
        assert done == []
        assert cpu.crashed

    def test_crashed_cpu_rejects_new_work(self):
        sim = Simulator()
        cpu = new_cpu(sim)
        cpu.crash()
        done = []
        cpu.submit(1.0, lambda: done.append(True))
        sim.run()
        assert done == []

    def test_recover_allows_new_work(self):
        sim = Simulator()
        cpu = new_cpu(sim)
        cpu.crash()
        cpu.recover()
        done = []
        cpu.submit(1.0, lambda: done.append(True))
        sim.run()
        assert done == [True]

    def test_busy_time_accumulates(self):
        sim = Simulator()
        cpu = new_cpu(sim)
        cpu.submit(1.0, lambda: None)
        cpu.submit(2.5, lambda: None)
        sim.run()
        assert cpu.busy_time == pytest.approx(3.5)
        assert cpu.items_processed == 2

    def test_utilisation_fraction(self):
        sim = Simulator()
        cpu = new_cpu(sim)
        cpu.submit(1.0, lambda: None)
        sim.run(until=4.0)
        assert cpu.utilisation() == pytest.approx(0.25)

    def test_utilisation_with_zero_elapsed(self):
        sim = Simulator()
        cpu = new_cpu(sim)
        assert cpu.utilisation() == 0.0

    def test_work_submitted_from_handler_runs(self):
        sim = Simulator()
        cpu = new_cpu(sim)
        done_at = []

        def first():
            done_at.append(sim.now)
            cpu.submit(2.0, lambda: done_at.append(sim.now))

        cpu.submit(1.0, first)
        sim.run()
        assert done_at == [1.0, 3.0]
