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
    """A 64 KiB sPIN write dispatches exactly 283 events for 34 switched
    packets (8.3 events/packet), every packet, hop and handler taken
    one at a time.  The pin is exact: a change that adds or removes
    events updates it on purpose.  (A budget of 2.5 events/packet held
    while uncontended bursts moved as packet trains; the per-packet
    pipeline sat at ~18.4 before its stages were fused.)"""
    tb = _spin_write_64k()
    packets = tb.net.switch.rx_packets
    events = tb.sim.events_dispatched
    assert (events, packets) == (283, 34), (
        f"packet pipeline changed: {events} events / {packets} packets "
        f"= {events / packets:.2f} events/packet (pinned 283 / 34)"
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


# ------------------------------------------------------- one-step hand-offs
def test_process_at_starts_late_with_one_dispatch():
    """``process(gen, at=t)`` takes its first step at exactly ``t``,
    from one heap entry, instead of starting now and sleeping."""
    import pytest

    from repro.simnet import SimulationError

    sim = Simulator()
    seen = []

    def gen():
        seen.append(sim.now)
        return
        yield  # pragma: no cover

    sim.process(gen(), at=0.1 + 0.2)
    sim.run()
    assert seen == [0.1 + 0.2] and sim.events_dispatched == 1
    with pytest.raises(SimulationError):
        sim.process(gen(), at=0.0)


def test_flush_over_one_channel_costs_one_wakeup():
    """A completion handler waiting on three DMAs of one PCIe channel
    waits on the last one posted (FIFO: it is durable last) and wakes
    once, at its durable instant.  A set with any other event (an NVMe
    completion) still waits on all of them."""
    from types import SimpleNamespace

    from repro.hostsim import Pcie
    from repro.params import HostParams
    from repro.pspin.accelerator import HandlerApi

    sim = Simulator()
    pcie = Pcie(sim, HostParams())
    run = SimpleNamespace(dma_events=[pcie.dma(n) for n in (4096, 512, 2048)])
    api = HandlerApi(SimpleNamespace(sim=sim), run)
    flushed = api.all_dma_flushed()
    assert flushed is run.dma_events[-1]
    woke = []

    def waiter():
        yield flushed
        woke.append(sim.now)

    sim.process(waiter())
    sim.run()
    # three channel completions + the waiter's start + one wake-up
    assert sim.events_dispatched == 5
    ser = pcie._ns_per_byte
    assert woke == [(4096 + 512 + 2048) * ser + HostParams().pcie_latency_ns]

    run.dma_events = [pcie.dma(64), sim.event()]
    assert type(api.all_dma_flushed()).__name__ == "AllOf"


def test_cq_poll_runs_the_application_callback():
    """One dispatch from the NIC's CQ poll to the open-loop ``_done``:
    the write event and the outcome adapter run their waiters inside
    the poll's heap entry instead of one dispatch each."""
    from repro.simnet.engine import Event

    tb = build_testbed(n_storage=2, sanitize=True)
    install_spin_targets(tb)
    c = DfsClient(tb)
    c.create("/f", size=4096)
    sim = tb.sim
    popped = []
    step = sim._hook

    def hook(entry):
        popped.append(entry)
        step(entry)

    sim._hook = hook
    done = []
    out = c.write("/f", np.zeros(2048, np.uint8), protocol="spin")
    out.add_callback(lambda ev: done.append(popped[-1]))
    sim.run_until_event(out)
    (entry,) = done
    assert getattr(entry[2], "__func__", None) is Event.succeed_inline
    assert entry[2].__self__.name == "write"
    assert out.value.ok and out.value.t_end == sim.now
