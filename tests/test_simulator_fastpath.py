"""Regression guards for the simulation-kernel fast path.

The packet pipeline was rewritten to dispatch a bounded number of heap
events per packet (fused Port serialization/delivery, fused PCIe DMA
stages, callback-based NIC hops).  These tests pin the *event counts*,
which are deterministic, so a change that quietly re-inflates the
per-packet cost fails here rather than only showing up as a slow CI.
"""

import numpy as np

from repro.dfs.client import DfsClient
from repro.dfs.cluster import build_testbed
from repro.protocols import install_spin_targets
from repro.simnet import Simulator


def _spin_write_64k():
    tb = build_testbed(n_storage=2)
    install_spin_targets(tb)
    c = DfsClient(tb)
    c.create("/f", size=64 * 1024)
    out = c.write_sync("/f", np.zeros(64 * 1024, np.uint8), protocol="spin")
    assert out.ok
    return tb


def test_events_per_packet_budget():
    """With packet-train coalescing a 64 KiB sPIN write costs 56 events
    for 34 switched packets (~1.65 events/packet).  Allow modest
    headroom; the pre-coalescing pipeline sat at ~18.4 and must not
    return."""
    tb = _spin_write_64k()
    packets = tb.net.switch.rx_packets
    events = tb.sim.events_dispatched
    assert packets == 34, f"packet count changed: {packets}"
    assert events / packets <= 2.5, (
        f"packet pipeline regressed: {events} events / {packets} packets "
        f"= {events / packets:.1f} events/packet (budget 2.5)"
    )


def test_timeout_costs_one_event():
    """The kernel core loop: N timeouts dispatch exactly N+1 events
    (process start + N timeouts; nobody joins the process, so its
    completion is quiet and dispatches nothing)."""
    sim = Simulator()

    def ping():
        for _ in range(100):
            yield sim.timeout(1.0)

    sim.process(ping())
    sim.run()
    assert sim.events_dispatched == 101
    assert sim.now == 100.0


def test_process_completion_dispatches_only_when_joined():
    """A joined process's completion is one event; joining an already
    finished process still resumes the joiner, with the return value."""
    sim = Simulator()
    got = []

    def child():
        yield sim.timeout(1.0)
        return "v"

    def parent(proc):
        got.append((yield proc))

    early = sim.process(child())
    sim.process(parent(early))
    sim.run()
    # 2 starts + 1 timeout + the joined completion
    assert sim.events_dispatched == 4 and got == ["v"]

    late = sim.process(child())
    sim.run()
    n0 = sim.events_dispatched
    sim.process(parent(late))
    sim.run()
    # start + the resume scheduled by joining the finished process
    assert sim.events_dispatched - n0 == 2 and got == ["v", "v"]


def test_identical_writes_identical_event_counts():
    """The fast path must stay deterministic: two fresh testbeds running
    the same write dispatch exactly the same number of events."""
    a, b = _spin_write_64k(), _spin_write_64k()
    assert a.sim.events_dispatched == b.sim.events_dispatched
    assert a.sim.now == b.sim.now
