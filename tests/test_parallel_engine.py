"""Bounded runs of the serial kernel and its same-timestamp tie-break.

A "window" here is one bounded call into the kernel: ``run(until=b)``
includes its bound ``b``; ``run_until_event(ev)`` stops as soon as ``ev``
triggers and leaves the rest of that instant queued.  Consecutive
windows must compose into the same schedule as one long run.  Every
contract holds for the sanitized kernel too: the ``Sanitized`` subclasses
rerun each test on ``Simulator(sanitize=True)``.
"""

from __future__ import annotations

import pytest

from repro.simnet.engine import SimulationError, Simulator


class TestRunWindow:
    def make_sim(self):
        return Simulator()

    def test_exclusive_bound(self):
        sim = self.make_sim()
        fired = []
        stop = sim.event("stop")
        sim._call_soon(lambda: fired.append(5.0), delay=5.0)
        sim._call_soon(lambda: stop.succeed(), delay=10.0)
        sim._call_soon(lambda: fired.append(10.0), delay=10.0)
        sim._call_soon(lambda: fired.append(15.0), delay=15.0)
        sim.run_until_event(stop)
        # the rest of t=10 (queued behind the trigger) has not fired
        assert fired == [5.0]
        assert sim.now == 10.0
        sim.run(until=10.0)
        assert fired == [5.0, 10.0]
        assert sim.peek() == 15.0

    def test_inclusive_bound(self):
        sim = self.make_sim()
        fired = []
        for t in (5.0, 10.0, 15.0):
            sim._call_soon(lambda t=t: fired.append(t), delay=t)
        sim.run(until=10.0)
        assert fired == [5.0, 10.0]
        assert sim.now == 10.0

    def test_events_beyond_bound_stay_queued(self):
        sim = self.make_sim()
        fired = []
        sim._call_soon(lambda: fired.append(1), delay=20.0)
        sim.run(until=10.0)
        assert fired == [] and sim.now == 10.0
        assert len(sim._heap) == 1
        sim.run(until=30.0)
        assert fired == [1] and sim.now == 30.0

    def test_injection_between_windows_is_legal(self):
        """After a window ends at its bound, an absolute-time injection
        inside the next window is not in the past."""
        sim = self.make_sim()
        fired = []
        sim._call_soon(lambda: fired.append("a"), delay=3.0)
        sim.run(until=5.0)
        assert sim.now == 5.0
        sim._call_at1(fired.append, "next", 7.0)  # 7.0 > now: fine
        sim.run(until=10.0)
        assert fired == ["a", "next"]

    def test_counters_maintained(self):
        sim = self.make_sim()
        for t in (1.0, 2.0, 3.0):
            sim._call_soon(lambda: None, delay=t)
        sim.run(until=2.5)
        assert sim.events_dispatched == 2
        assert sim.heap_high_water >= 3
        assert sim.wall_seconds > 0.0
        sim.run(until=5.0)
        assert sim.events_dispatched == 3

    def test_past_bound_rejected(self):
        sim = self.make_sim()
        fired = []
        sim._call_soon(lambda: fired.append(20.0), delay=20.0)
        sim.run(until=10.0)
        with pytest.raises(SimulationError, match=r"run\(until=5.0\) is in the past \(now=10.0\)"):
            sim.run(until=5.0)
        assert sim.now == 10.0 and fired == []


class TestHeapTieBreak:
    """Same-timestamp entries dispatch in insertion order, and the order
    is the same on every fresh kernel."""

    N = 32
    T = 100.0

    def make_sim(self):
        return Simulator()

    def _schedule(self, sim, log):
        for i in range(self.N):
            sim._call_at1(log.append, f"{i}", self.T)

    def test_insertion_order_on_one_kernel(self):
        sim, log = self.make_sim(), []
        self._schedule(sim, log)
        sim.run(until=self.T)
        assert log == [f"{i}" for i in range(self.N)]

    def test_order_survives_kernel_restart(self):
        runs = []
        for _ in range(3):
            sim, log = self.make_sim(), []
            self._schedule(sim, log)
            sim.run(until=self.T)
            runs.append(log)
        assert runs[0] == runs[1] == runs[2] == [f"{i}" for i in range(self.N)]


class TestRunWindowSanitized(TestRunWindow):
    def make_sim(self):
        return Simulator(sanitize=True)


class TestHeapTieBreakSanitized(TestHeapTieBreak):
    def make_sim(self):
        return Simulator(sanitize=True)
