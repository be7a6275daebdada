"""Deferred heap entries (``repro.simnet.engine.Deferrer``).

Two effects are deferred with telemetry off: a payload DMA into host
memory (``Pcie.post_write``: sPIN handlers' ``dma_write`` on NVMM nodes
and RDMA-write delivery) and a switch hop onto an egress that is busy
past the hop's enqueue instant (``Port.defer_enqueue``).  Each holds the
heap rank its entry would have had and is applied by the next reader of
the state it writes.

The differential tests run each scenario twice: as built, and with both
deferral sites pushing a real entry at post, the per-entry reference.
Outcomes, the final clock, every memory target's bytes and every port's
counters must match, and the reference must dispatch exactly one event
more per effect the deferred run applied without a dispatch.  The unit
tests pin the visibility rule and the run/peek contracts.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro import DfsClient, ReplicationSpec
from repro.dfs import cluster
from repro.experiments.common import installer_for
from repro.hostsim import MemoryTarget, Pcie
from repro.hostsim.pcie import flush_event, pending_flushes
from repro.params import HostParams
from repro.scenarios import MATRIX_NAMES, get, run_scenario
from repro.simnet.engine import Simulator
from repro.simnet.link import Port
from repro.simnet.packet import Packet
from repro.workloads import LoadSpec, closed_loop_write_load

from .write_cases import _run_protocol, _spin_writes

KiB = 1024


# ------------------------------------------------------------ differential
def _real_entries(m):
    """Both deferral sites push a real entry at post instead."""
    m.setattr(Port, "defer_enqueue", lambda self, pkt, t: False)

    def post_write(self, target, addr, data, trace=None):
        return self.dma(data.nbytes, on_complete=lambda: target.write(addr, data),
                        trace=trace)

    m.setattr(Pcie, "post_write", post_write)


def _memory_digest(mem: MemoryTarget) -> tuple:
    words = mem.view(0, mem.capacity).view(np.uint64)
    nz = np.flatnonzero(words)
    h = hashlib.sha256(nz.tobytes() + words[nz].tobytes()).hexdigest()[:16]
    return h, mem.bytes_written, mem.write_ops


def _observe(monkeypatch, run):
    """``run()``'s result plus every testbed's and port's observables."""
    tbs, ports = [], []
    tb_init, port_init = cluster.Testbed.__init__, Port.__init__

    def spy_testbed(self, *a, **kw):
        tb_init(self, *a, **kw)
        tbs.append(self)

    def spy_port(self, *a, **kw):
        port_init(self, *a, **kw)
        ports.append(self)

    with monkeypatch.context() as m:
        m.setattr(cluster.Testbed, "__init__", spy_testbed)
        m.setattr(Port, "__init__", spy_port)
        result = run()
    (tb,) = tbs
    sim = tb.sim
    return {
        "result": result,
        "now": sim.now,
        "memory": {n.name: _memory_digest(n.memory)
                   for n in [*tb.clients, *tb.storage_nodes]},
        "ports": [(p.owner_name, p.tx_packets, p.tx_bytes, p.busy_ns) for p in ports],
    }, sim


def _closed_loop_64k_k3():
    tb = cluster.build_testbed(n_storage=8, n_clients=4)
    installer_for("spin")(tb)
    spec = LoadSpec(n_clients=16, outstanding=2, think_ns=1_000.0,
                    warmup_ns=50_000.0, measure_ns=0.55e6 / 20, seed=1)
    res = closed_loop_write_load(tb, 64 * KiB, "spin", spec,
                                 replication=ReplicationSpec(k=3))
    return dataclasses.asdict(res)


def _leafspine_k3():
    tb = cluster.build_testbed(n_storage=6, n_clients=2, topology="leafspine",
                               uplink_gbps=100.0)
    installer_for("spin")(tb)
    evs = []
    for i in range(2):
        c = DfsClient(tb, client_index=i, principal=f"c{i}")
        c.create(f"/f{i}", size=32 * KiB, replication=ReplicationSpec(k=3))
        data = np.random.default_rng(i).integers(0, 256, 32 * KiB, dtype=np.uint8)
        evs.append(c.write(f"/f{i}", data, protocol="spin"))
    tb.run(until=5_000_000)
    return [(e.value.ok, e.value.latency_ns) for e in evs]


DIFF_CASES = {
    **{f"scenario-{n}": lambda n=n: run_scenario(get(n, quick=True), seed=1)
       for n in MATRIX_NAMES},
    "closed-64k-k3": _closed_loop_64k_k3,
    **{f"spin-writes-{kib}k": lambda kib=kib: _spin_writes(kib * KiB)
       for kib in (2, 8, 16)},
    "leafspine-k3": _leafspine_k3,
    **{f"rdma-{p}": lambda p=p: _run_protocol(p, False, None)[0]
       for p in ("raw", "rdma-flat")},
}


@pytest.mark.parametrize("case", list(DIFF_CASES))
def test_deferred_run_matches_real_entries(monkeypatch, case):
    run = DIFF_CASES[case]
    got, sim = _observe(monkeypatch, run)
    with monkeypatch.context() as m:
        _real_entries(m)
        want, ref = _observe(monkeypatch, run)
    assert got == want
    assert ref.deferred_applied == 0
    # every deferred effect is either dispatched (armed, materialized)
    # or applied without a dispatch, never both
    assert sim.events_dispatched + sim.deferred_applied == ref.events_dispatched


def test_deferral_applies_on_the_benchmark_shapes(monkeypatch):
    """Both sites defer on a saturated replicated closed loop."""
    posts = hops = 0
    post_write, defer = Pcie.post_write, Port.defer_enqueue

    def spy_post(self, *a, **kw):
        nonlocal posts
        posts += 1
        return post_write(self, *a, **kw)

    def spy_defer(self, pkt, t):
        nonlocal hops
        took = defer(self, pkt, t)
        hops += took
        return took

    monkeypatch.setattr(Pcie, "post_write", spy_post)
    monkeypatch.setattr(Port, "defer_enqueue", spy_defer)
    _closed_loop_64k_k3()
    assert posts > 1000 and hops > 1000


# ------------------------------------------------------- memory visibility
def _channel():
    sim = Simulator()
    return sim, Pcie(sim, HostParams()), MemoryTarget(4096)


def test_read_before_durable_sees_old_bytes():
    sim, pcie, mem = _channel()
    seen = {}
    durable = pcie.params.pcie_latency_ns + 64 * pcie._ns_per_byte

    def read(tag):
        seen[tag] = int(mem.read(0, 1)[0])

    # ranked before the post at the durable instant: the old bytes
    sim._call_at1(read, "tie-before", durable)
    post = pcie.post_write(mem, 0, np.full(64, 7, np.uint8))
    assert post[0] == durable
    sim._call_at1(read, "early", durable - 1.0)
    sim._call_at1(read, "tie-after", durable)
    sim.run()
    assert seen == {"early": 0, "tie-before": 0, "tie-after": 7}
    assert sim.deferred_applied == 1 and sim.events_dispatched == 3


def test_run_that_ends_on_deferred_flushes_stops_at_last_durable():
    sim, pcie, mem = _channel()
    pcie.post_write(mem, 0, np.full(64, 1, np.uint8))
    last = pcie.post_write(mem, 64, np.full(128, 2, np.uint8))
    assert sim.run() == last[0]
    assert sim.events_dispatched == 2 and sim.deferred_applied == 0
    assert mem.read(0, 192).tolist() == [1] * 64 + [2] * 128
    assert mem.bytes_written == 192 and mem.write_ops == 2


def test_run_until_applies_exactly_the_effects_due():
    sim, pcie, mem = _channel()
    first = pcie.post_write(mem, 0, np.full(64, 1, np.uint8))
    second = pcie.post_write(mem, 64, np.full(2048, 2, np.uint8))
    bound = (first[0] + second[0]) / 2
    sim.run(until=bound)
    assert sim.now == bound
    assert mem.read(0, 65).tolist() == [1] * 64 + [0]
    assert sim.peek() == second[0]
    sim.run(until=second[0])
    assert mem.read(64, 2048).tolist() == [2] * 2048


def test_peek_sees_a_deferred_entry():
    sim, pcie, mem = _channel()
    post = pcie.post_write(mem, 0, np.ones(64, np.uint8))
    assert not sim._heap
    assert sim.peek() == post[0]


def test_armed_flush_fires_at_the_posts_rank():
    """An entry at the durable instant, pushed after the post but before
    a waiter arms the flush, finds it fired: arming keeps the post's
    rank rather than taking a new one."""
    sim, pcie, mem = _channel()
    post = pcie.post_write(mem, 0, np.ones(64, np.uint8))
    seen = []
    sim._call_at1(lambda _: seen.append(ev.triggered), None, post[0])
    ev = flush_event(post)
    assert flush_event(post) is ev
    sim.run()
    assert seen == [True]
    assert sim.events_dispatched == 2 and sim.deferred_applied == 0


def test_pending_flushes_follows_rank():
    sim, pcie, mem = _channel()
    post = pcie.post_write(mem, 0, np.ones(64, np.uint8))
    states = []
    sim._call_at1(lambda _: states.append(len(pending_flushes(sim, [post]))), None, post[0])
    assert pending_flushes(sim, [post]) == [post]
    sim.run()
    assert states == [0]


# ---------------------------------------------------------- egress hops
class _Sink:
    name = "sink"

    def __init__(self, sim):
        self.sim = sim
        self.got = []

    def receive(self, pkt):
        self.got.append((pkt.msg_id, self.sim.now))


def _pkt(mid, size=1000):
    return Packet(src="a", dst="sink", op="write", msg_id=mid, seq=0, nseq=1,
                  payload=np.zeros(size, np.uint8))


@pytest.mark.parametrize("sender_first", [True, False])
def test_same_instant_try_send_keeps_fifo_with_a_deferred_hop(sender_first):
    # a sender's send() settles the port's due deferred hops (enqueue's
    # guard) before it touches the queue, so rank order decides FIFO
    sim = Simulator()
    port = Port(sim, "sw->sink", 400.0)
    sink = _Sink(sim)
    port.connect(sink, 20.0)
    port.enqueue(_pkt(0, 8000))  # busy for 160 ns
    t = 50.0
    if sender_first:
        sim._call_at1(lambda _: port.send(_pkt(2)), None, t)
    assert port.defer_enqueue(_pkt(1), t)
    if not sender_first:
        sim._call_at1(lambda _: port.send(_pkt(2)), None, t)
    sim.run()
    order = [mid for mid, _t in sink.got]
    assert order == ([0, 2, 1] if sender_first else [0, 1, 2])
    assert sim.deferred_applied == 1


def test_hop_is_not_deferred_unless_the_wire_is_busy_past_it():
    sim = Simulator()
    port = Port(sim, "sw->sink", 400.0)
    port.connect(_Sink(sim), 20.0)
    assert not port.defer_enqueue(_pkt(1), 10.0)  # idle wire
    port.enqueue(_pkt(0, 8000))
    end = port._free_t
    assert not port.defer_enqueue(_pkt(1), end)  # free exactly then
    assert port.defer_enqueue(_pkt(1), end - 1.0)


def test_deferred_hop_at_drain_is_dispatched_at_its_rank():
    sim = Simulator()
    port = Port(sim, "sw->sink", 400.0)
    sink = _Sink(sim)
    port.connect(sink, 20.0)
    first, second = _pkt(0, 8000), _pkt(1)
    port.enqueue(first)
    assert port.defer_enqueue(second, 100.0)
    sim.run()
    npb = port._ns_per_byte
    assert [m for m, _ in sink.got] == [0, 1]
    assert sink.got[1][1] == first.size * npb + second.size * npb + 20.0
    assert second.enqueue_t == 100.0
    assert port.tx_packets == 2


# --------------------------------------------------------------- simsan
def test_sanitized_run_leaves_no_stale_origin():
    """An effect applied without a dispatch drops its reserved seq's push
    attribution: after a drained run only queued entries keep one."""
    tb = cluster.build_testbed(n_storage=4, n_clients=2, sanitize=True)
    installer_for("spin")(tb)
    evs = []
    for i in range(2):
        c = DfsClient(tb, client_index=i, principal=f"c{i}")
        c.create(f"/f{i}", size=64 * KiB, replication=ReplicationSpec(k=3))
        evs.append(c.write(f"/f{i}", np.ones(64 * KiB, np.uint8), protocol="spin"))
    tb.drain()
    assert all(e.value.ok for e in evs)
    assert tb.sim.deferred_applied > 0
    queued = {entry[1] for entry in tb.sim._heap}
    assert set(tb.sanitizer._origins) <= queued
    assert tb.sanitize_report().ok


def test_pending_deferred_entry_at_quiesce_is_a_leak():
    sim = Simulator(sanitize=True)
    pcie, mem = Pcie(sim, HostParams()), MemoryTarget(4096)
    pcie.post_write(mem, 0, np.ones(64, np.uint8))
    kinds = [f.kind for f in sim.sanitizer.check_quiesce()]
    assert kinds == ["leak-deferred"]
    sim.run()
    assert sim.sanitizer.check_quiesce() == []
