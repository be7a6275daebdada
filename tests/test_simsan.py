"""Sanitizer efficacy tests: revert-style regression fixtures.

The quick-matrix / demo gates prove the committed tree is
*currently clean*; these tests prove the sanitizer would actually catch
the bug classes it was built for.  Each fixture re-introduces, in a
throwaway fixture sim (never in the real code), a bug class from this
repository's history:

* the **resource-leak class** — an error reaches a process between a
  resource grant and its release (here: an event it waits on fails),
  the process unwinds, and the slot is never released
  (``leak-resource``);
* the **PR 9 teardown-hang class** — a multi-message transaction is
  opened on the NIC and never completed, and a request span is opened
  and never closed, so teardown hangs with no diagnosis
  (``leak-greq`` / ``orphan-span``);

plus direct positives/negatives for the schedule-race and clock-rewind
detectors and the zero-perturbation guarantee (a sanitized run's
schedule is byte-identical to an unsanitized one).
"""

import numpy as np
import pytest

from repro.dfs.client import DfsClient
from repro.dfs.cluster import build_testbed
from repro.protocols import install_spin_targets
from repro.simnet.engine import SimulationError, Simulator
from repro.simnet.resources import Container, Resource


def _quiesce_report(sim):
    """Run the quiesce sweep and return the full report."""
    sim.sanitizer.check_quiesce()
    return sim.sanitizer.report()


# ===================================================================
# Leak class: resource slot leaked when a failed event unwinds the holder
# ===================================================================

class TestLeakOnFailedEvent:
    def _run_victim(self, release_in_finally: bool):
        sim = Simulator(sanitize=True)
        pool = Resource(sim, capacity=1, name="hpus")
        reply = sim.event("reply")

        def victim():
            req = pool.request()
            yield req  # granted immediately (capacity 1, empty pool)
            if release_in_finally:
                try:
                    yield reply
                except RuntimeError:
                    pass
                finally:
                    pool.release(req)
            else:
                # the bug class: the failure unwinds the process
                # and the grant is never released
                try:
                    yield reply
                except RuntimeError:
                    return

        sim.process(victim(), name="victim")

        def peer():
            yield sim.timeout(50)
            reply.fail(RuntimeError("peer crashed"))

        sim.process(peer(), name="peer")
        sim.run()
        return sim, pool

    def test_swallowed_failure_leaks_granted_slot(self):
        sim, pool = self._run_victim(release_in_finally=False)
        assert len(pool.users) == 1  # the fixture really does leak
        report = _quiesce_report(sim)
        assert report.kinds() == {"leak-resource"}
        (finding,) = report.findings
        assert "still held at quiesce" in finding.message
        assert "hpus" in finding.message
        # the acquisition backtrace points at the fixture's request()
        # call site, not at the quiesce sweep that noticed the leak
        assert "test_simsan" in finding.where

    def test_release_in_finally_is_clean(self):
        sim, pool = self._run_victim(release_in_finally=True)
        assert not pool.users
        report = _quiesce_report(sim)
        assert report.ok, report.summary()


# ===================================================================
# PR 9 class: teardown hang — outstanding greq / orphaned request span
# ===================================================================

class TestTeardownHang:
    def test_open_transaction_never_completed_is_leak_greq(self):
        tb = build_testbed(n_storage=2, sanitize=True)
        client = tb.clients[0]
        # a completed write retires cleanly...
        data = np.zeros(4096, np.uint8)
        res = tb.run_until(client.nic.post_write("sn0", data, headers={"addr": 0}))
        assert res.ok
        # ...but a transaction opened and never fed any acks is exactly
        # the state that used to hang teardown with no diagnosis
        gid, done = client.nic.open_transaction(expected_acks=2)
        tb.run(until=tb.sim.now + 100_000)
        assert not done.triggered
        report = tb.sanitize_report()
        assert report.kinds() == {"leak-greq"}
        (finding,) = report.findings
        assert f"greq {gid}" in finding.message
        assert "still pending at quiesce" in finding.message
        assert finding.where  # posted-from backtrace is attached

    def test_orphaned_request_span_detected(self):
        sim = Simulator(sanitize=True)
        sim.telemetry.enabled = True
        sim.telemetry.begin("write/never-closed", "client", "c0", t0=0.0,
                            cat="request")
        sim.run(until=10_000_000)  # well past the 5 ms span budget
        report = _quiesce_report(sim)
        assert "orphan-span" in report.kinds()
        (finding,) = [f for f in report.findings if f.kind == "orphan-span"]
        assert "write/never-closed" in finding.message

    def test_closed_and_non_request_spans_are_clean(self):
        sim = Simulator(sanitize=True)
        sim.telemetry.enabled = True
        tel = sim.telemetry
        s = tel.begin("write/closed", "client", "c0", t0=0.0, cat="request")
        tel.end(s, 500.0)
        # an open non-request span (a phase mark) is not an orphan
        tel.begin("phase/open", "client", "c0", t0=0.0, cat="host")
        sim.run(until=10_000_000)
        report = _quiesce_report(sim)
        assert report.ok, report.summary()


# ===================================================================
# schedule-race detector: positives, exemptions, declare_coincident
# ===================================================================

def _race_fixture(declare=()):
    """Two coroutines independently schedule the same fire time from
    different earlier instants — the order-dependent tie."""
    sim = Simulator(sanitize=True)
    if declare:
        sim.sanitizer.declare_coincident(*declare)

    def a():
        yield sim.timeout(10)
        yield sim.timeout(90)  # pushed at t=10, fires at t=100

    def b():
        yield sim.timeout(20)
        yield sim.timeout(80)  # pushed at t=20, fires at t=100

    sim.process(a(), name="a")
    sim.process(b(), name="b")
    sim.run()
    return _quiesce_report(sim)


class TestScheduleRace:
    def test_independent_same_fire_time_is_flagged(self):
        report = _race_fixture()
        assert report.kinds() == {"schedule-race"}
        (finding,) = report.findings
        assert "proc:a" in finding.message and "proc:b" in finding.message
        assert "insertion order" in finding.message
        assert report.stats["ties_cross_origin"] >= 1

    def test_synchronized_burst_is_exempt(self):
        """Two processes pushed at the *same* instant toward the same
        fire time share a common cause (a broadcast / synchronized
        start) — not insertion-order luck, not flagged."""
        sim = Simulator(sanitize=True)

        def sleeper():
            yield sim.timeout(100)

        sim.process(sleeper(), name="a")
        sim.process(sleeper(), name="b")
        sim.run()
        report = _quiesce_report(sim)
        assert report.ok, report.summary()
        assert report.stats["ties_seen"] >= 1  # the tie existed; exempted

    def test_declare_coincident_suppresses(self):
        report = _race_fixture(declare=("proc:a",))
        assert report.ok, report.summary()

    def test_callback_chain_with_a_strand_counts_as_a_coroutine(self):
        """A callback chain whose owner names a ``strand`` (the PsPIN
        per-packet record) is checked like a process: a chain racing a
        coroutine is flagged under its ``strand:`` label, and declaring
        that label exempts it."""
        class Chain:
            strand = "chain"

            def first(self, _):
                sim._call_soon1(self.second, None, 80)  # pushed at t=20

            def second(self, _):
                pass

        for declare in ((), ("strand:chain",)):
            sim = Simulator(sanitize=True)
            if declare:
                sim.sanitizer.declare_coincident(*declare)

            def a():
                yield sim.timeout(10)
                yield sim.timeout(90)  # pushed at t=10, fires at t=100

            sim.process(a(), name="a")
            sim._call_soon1(Chain().first, None, 20)
            sim.run()
            report = _quiesce_report(sim)
            if declare:
                assert report.ok, report.summary()
            else:
                (finding,) = report.findings
                assert "proc:a" in finding.message and "strand:chain" in finding.message


class TestClockRewind:
    def test_absolute_push_into_the_past(self):
        sim = Simulator(sanitize=True)

        def proc():
            yield sim.timeout(100)
            sim._call_at1(lambda _arg: None, None, 50.0)  # behind now=100
            yield sim.timeout(1)

        sim.process(proc(), name="rewinder")
        with pytest.raises(SimulationError):
            sim.run()
        report = sim.sanitizer.report()
        assert "clock-rewind" in report.kinds()
        assert any("scheduled into the past" in f.message
                   for f in report.findings)


# ===================================================================
# store / container quiesce sweeps
# ===================================================================

class TestStoreContainerSweeps:
    def test_units_never_returned_is_leak_container(self):
        sim = Simulator(sanitize=True)
        credits = Container(sim, capacity=10, name="credits")

        def taker():
            assert credits.try_get(4)
            yield sim.timeout(10)
            # returns without put(4): units are gone

        sim.process(taker(), name="taker")
        sim.run()
        report = _quiesce_report(sim)
        assert report.kinds() == {"leak-container"}
        (finding,) = report.findings
        assert "4" in finding.message and "never returned" in finding.message
        assert "test_simsan" in finding.where  # grant backtrace

    def test_balanced_get_put_is_clean(self):
        sim = Simulator(sanitize=True)
        credits = Container(sim, capacity=10, name="credits")

        def taker():
            assert credits.try_get(4)
            yield sim.timeout(10)
            credits.put(4)

        sim.process(taker(), name="taker")
        sim.run()
        report = _quiesce_report(sim)
        assert report.ok, report.summary()


# ===================================================================
# zero perturbation: sanitized == unsanitized, event for event
# ===================================================================

class TestZeroPerturbation:
    def _spin_write(self, sanitize):
        tb = build_testbed(n_storage=3, sanitize=sanitize)
        install_spin_targets(tb)
        c = DfsClient(tb)
        c.create("/f", size=64 * 1024)
        data = np.arange(64 * 1024, dtype=np.uint32).view(np.uint8)
        out = c.write_sync("/f", data, protocol="spin")
        assert out.ok
        tb.run(until=tb.sim.now + 200_000)
        return tb

    def test_sanitized_schedule_is_byte_identical(self):
        plain = self._spin_write(sanitize=False)
        sane = self._spin_write(sanitize=True)
        assert sane.sim.events_dispatched == plain.sim.events_dispatched
        assert sane.sim.now == plain.sim.now
        assert (sane.net.switch.rx_packets == plain.net.switch.rx_packets)
        # and the instrumented run observed every one of those events
        report = sane.sanitize_report()
        assert report.ok, report.summary()
        assert report.stats["pops"] == sane.sim.events_dispatched
