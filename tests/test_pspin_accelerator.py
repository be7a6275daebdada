"""PsPIN accelerator tests: pipeline timing, handler ordering, HPU
scheduling, egress back-pressure, cleanup."""

import numpy as np
import pytest

from repro.core.context import ExecutionContext, Handler, HandlerSet
from repro.core.handlers import DfsPolicy, build_dfs_context
from repro.core.request import DfsHeader, WriteRequestHeader
from repro.core.state import DfsState
from repro.dfs.cluster import build_testbed
from repro.params import PsPinParams, SimParams
from repro.protocols import install_spin_targets
from repro.pspin.accelerator import PsPinAccelerator
from repro.pspin.isa import HandlerCost
from repro.pspin.memory import NicMemory
from repro.simnet import Simulator
from repro.simnet.packet import Message, Packet, fresh_msg_id, segment_message


class Harness:
    """Accelerator with stub NIC egress and DMA."""

    def __init__(self, params: PsPinParams | None = None, authority=None,
                 egress_delay_ns: float = 0.0):
        self.sim = Simulator()
        self.params = params or PsPinParams()
        self.sent: list[Packet] = []
        self.dmas: list[tuple] = []
        self.egress_delay_ns = egress_delay_ns

        def send_fn(pkt):
            self.sent.append(pkt)
            ev = self.sim.event()
            if self.egress_delay_ns:
                self.sim._call_soon1(lambda _: ev.succeed(None), None, delay=self.egress_delay_ns)
            else:
                ev.succeed(None)
            return ev

        def dma_fn(addr, payload):
            self.dmas.append((addr, payload))
            ev = self.sim.event()
            ev.succeed(None)
            return ev

        self.accel = PsPinAccelerator(self.sim, self.params, "node", send_fn, dma_fn)
        self.nicmem = NicMemory(self.sim, self.params)
        self.state = DfsState(self.nicmem, self.params, authority=authority)

    def install_policy(self, policy=None):
        ctx = build_dfs_context("dfs", policy or DfsPolicy(), self.state)
        self.accel.install(ctx)
        return ctx

    def write_packets(self, nbytes, msg_id=1, header_bytes=80):
        dfs = DfsHeader(greq_id=msg_id, op="write", client_id=1, capability=None,
                        reply_to="client")
        wrh = WriteRequestHeader(addr=0)
        msg = Message(
            src="client", dst="node", op="write",
            data=np.zeros(nbytes, dtype=np.uint8),
            headers={"dfs": dfs, "wrh": wrh, "write_len": nbytes},
            header_bytes=header_bytes, msg_id=msg_id,
        )
        return segment_message(msg, 2048)


def test_non_matching_packet_not_consumed():
    h = Harness()
    h.install_policy()
    pkt = Packet(src="a", dst="node", op="ack", msg_id=9, seq=0, nseq=1)
    assert not h.accel.ingest(pkt)


def test_no_context_not_consumed():
    h = Harness()
    pkt = Packet(src="a", dst="node", op="write", msg_id=9, seq=0, nseq=1)
    assert not h.accel.ingest(pkt)


def test_single_packet_write_acks_and_dmas():
    h = Harness()
    h.install_policy()
    for pkt in h.write_packets(1000):
        assert h.accel.ingest(pkt)
    h.sim.run(until=100_000)
    acks = [p for p in h.sent if p.op == "ack"]
    assert len(acks) == 1 and acks[0].dst == "client"
    assert len(h.dmas) == 1 and h.dmas[0][1].nbytes == 1000
    assert h.accel.packets_processed == 1
    assert h.state.requests_completed == 1 and not h.state.req_table


def test_multi_packet_write_one_request_entry():
    h = Harness()
    h.install_policy()
    pkts = h.write_packets(20_000)
    assert len(pkts) > 5
    for pkt in pkts:
        assert h.accel.ingest(pkt)
    h.sim.run(until=1_000_000)
    assert h.state.requests_started == 1
    assert h.state.requests_completed == 1
    assert sum(d[1].nbytes for d in h.dmas) == 20_000
    assert len([p for p in h.sent if p.op == "ack"]) == 1


def test_handler_ordering_hh_before_ph_before_ch():
    """sPIN contract: HH completes before PHs; CH after all PHs."""
    h = Harness()
    order = []

    class P(DfsPolicy):
        def on_header(self, api, task, entry, pkt):
            super().on_header(api, task, entry, pkt)
            order.append(("hh", api.now))

        def process_pkt(self, api, task, entry, pkt):
            order.append(("ph", api.now))
            return
            yield

        def request_fini(self, api, task, entry, pkt):
            order.append(("ch", api.now))
            return
            yield

    h.install_policy(P())
    for pkt in h.write_packets(30_000):
        h.accel.ingest(pkt)
    h.sim.run(until=1_000_000)
    kinds = [k for k, _ in order]
    assert kinds[0] == "hh" and kinds[-1] == "ch"
    assert kinds.count("ph") == len(h.write_packets(30_000))
    hh_t = order[0][1]
    ch_t = order[-1][1]
    assert all(hh_t <= t <= ch_t for _, t in order)


def test_out_of_order_payload_waits_for_header():
    h = Harness()
    h.install_policy()
    pkts = h.write_packets(5000)
    # deliver payload packets before the header
    for pkt in pkts[1:]:
        h.accel.ingest(pkt)
    h.sim.run(until=10_000)
    assert h.state.requests_started == 0  # parked on hh_done
    h.accel.ingest(pkts[0])
    h.sim.run(until=1_000_000)
    assert h.state.requests_completed == 1
    assert sum(d[1].nbytes for d in h.dmas) == 5000


def test_pipeline_latency_matches_fig7():
    """Single 2 KiB packet: buffer copy 32 + sched 2 + L1 copy 43 +
    dispatch 1 + HH 211 (+ PH + CH) — the ingest-to-HH-start delay is
    the Fig. 7 fixed pipeline."""
    h = Harness()
    t_hh = []

    class P(DfsPolicy):
        def on_header(self, api, task, entry, pkt):
            super().on_header(api, task, entry, pkt)
            t_hh.append(api.now)

    h.install_policy(P())
    (pkt,) = h.write_packets(2048 - 80)
    assert pkt.size == 2048 + 64  # transport framing extra
    h.accel.ingest(pkt)
    h.sim.run(until=10_000)
    # on_header runs after pipeline + HH compute: 33+2+44+1+211 = 291
    assert t_hh[0] == pytest.approx(291, abs=5)


def test_hpu_parallelism_bounded_by_pool():
    """With 1 cluster x 1 HPU, payload handlers serialize."""
    h = Harness(PsPinParams(n_clusters=1, hpus_per_cluster=1))
    h.install_policy()
    pkts = h.write_packets(20_000)
    for pkt in pkts:
        h.accel.ingest(pkt)
    h.sim.run(until=10_000_000)
    assert h.state.requests_completed == 1
    st = h.accel.stats["payload:dfs"]
    assert st.n == len(pkts)


def test_egress_backpressure_stretches_handler():
    """If egress transmissions are slow, forwarding handlers stall."""
    from repro.core.policies.replication import ReplicationPolicy
    from repro.core.request import ReplicaCoord, ReplicationParams

    def run(delay):
        h = Harness(egress_delay_ns=delay)
        h.install_policy(ReplicationPolicy())
        dfs = DfsHeader(greq_id=5, op="write", client_id=1, capability=None, reply_to="c")
        rp = ReplicationParams(strategy="ring", virtual_rank=0,
                               coords=(ReplicaCoord("n2", 0),))
        wrh = WriteRequestHeader(addr=0, resiliency="replication", replication=rp)
        msg = Message(src="c", dst="node", op="write",
                      data=np.zeros(30_000, dtype=np.uint8),
                      headers={"dfs": dfs, "wrh": wrh, "write_len": 30_000},
                      header_bytes=100, msg_id=77)
        for pkt in segment_message(msg, 2048):
            h.accel.ingest(pkt)
        h.sim.run(until=50_000_000)
        return h.accel.stats["payload:dfs"].mean_duration()

    fast = run(0.0)
    slow = run(2000.0)
    assert slow > fast * 2


def test_ingress_overload_nacks_new_messages():
    """When the accelerator can't keep up, new messages are denied and
    the client retries later (§III-B2/§III-C)."""
    h = Harness(PsPinParams(ingress_queue_packets=2, n_clusters=1, hpus_per_cluster=1))
    h.install_policy()
    first = h.write_packets(40_000, msg_id=1)
    for pkt in first[:4]:  # saturate the 2-packet ingress queue
        assert h.accel.ingest(pkt)
    second = h.write_packets(4_000, msg_id=2)
    for pkt in second:
        assert h.accel.ingest(pkt)  # consumed: denied, not raw-written
    h.sim.run(until=50_000_000)
    assert h.accel.packets_steered >= len(second)
    nacks = [p for p in h.sent if p.op == "nack"]
    assert any(p.headers.get("reason") == "overload" for p in nacks)
    # the denied message wrote nothing
    assert sum(d[1].nbytes for d in h.dmas) <= 40_000


def test_auth_reject_nacks_and_drops():
    from repro.dfs.capability import CapabilityAuthority

    h = Harness(authority=CapabilityAuthority(key=b"k"))
    h.install_policy()
    pkts = h.write_packets(10_000)  # capability=None -> reject
    for pkt in pkts:
        h.accel.ingest(pkt)
    h.sim.run(until=1_000_000)
    nacks = [p for p in h.sent if p.op == "nack"]
    assert len(nacks) == 1 and nacks[0].headers["reason"] == "auth"
    assert not h.dmas  # no payload ever crossed to the host
    assert h.state.requests_rejected_auth == 1
    assert [e["type"] for e in h.state.drain_host_events()] == ["auth_reject"]


def test_memory_denial_nacks():
    params = PsPinParams()
    h = Harness(params)
    h.install_policy()
    # exhaust request memory: drain every L1 and whatever L2 remains
    for c in range(params.n_clusters):
        assert h.nicmem.l1[c].try_get(h.nicmem.l1[c].level)
    assert h.nicmem.l2.try_get(h.nicmem.l2.level)
    for pkt in h.write_packets(1000):
        h.accel.ingest(pkt)
    h.sim.run(until=1_000_000)
    nacks = [p for p in h.sent if p.op == "nack"]
    assert len(nacks) == 1 and nacks[0].headers["reason"] == "nic_mem"


def test_cleanup_reclaims_abandoned_request():
    params = PsPinParams(cleanup_timeout_ns=10_000.0)
    h = Harness(params)
    h.install_policy()
    pkts = h.write_packets(50_000)
    for pkt in pkts[:3]:  # client dies mid-write
        h.accel.ingest(pkt)
    h.sim.run(until=200_000)
    assert h.state.requests_cleaned == 1
    assert not h.state.req_table
    assert h.accel.in_flight_messages == 0
    events = h.state.drain_host_events()
    assert any(e["type"] == "write_interrupted" for e in events)


def test_cleanup_does_not_touch_active_requests():
    params = PsPinParams(cleanup_timeout_ns=50_000.0)
    h = Harness(params)
    h.install_policy()
    for pkt in h.write_packets(4000):
        h.accel.ingest(pkt)
    h.sim.run(until=500_000)
    assert h.state.requests_cleaned == 0
    assert h.state.requests_completed == 1


def _abandon(h, msg_id, n):
    """A client dies after sending the first ``n`` packets of a write."""
    for pkt in h.write_packets(50_000, msg_id=msg_id)[:n]:
        h.accel.ingest(pkt)


def test_cleanup_fires_on_the_sweep_grid():
    """The sweep checks at g + k*P (P = timeout / 2, built by repeated
    addition), with the origin g at install and then at the end of each
    cleanup batch.  The lazy sweeper schedules only the points where a
    run can be stale; the times are those of a sweep that ticks at every
    grid point.  msg 2's time checks that the origin moved."""
    h = Harness(PsPinParams(cleanup_timeout_ns=10_000.0))
    h.install_policy()
    _abandon(h, 1, 3)
    h.sim.run(until=37_000)
    _abandon(h, 2, 2)
    h.sim.run(until=200_000)
    assert [
        (e["greq_id"], e["t"])
        for e in h.state.drain_host_events()
        if e["type"] == "write_interrupted"
    ] == [(1, 15154.8), (2, 50309.600000000006)]
    assert h.accel.in_flight_messages == 0


def test_idle_accelerator_dispatches_nothing():
    """With no message in flight the sweeper schedules no event."""
    h = Harness(PsPinParams(cleanup_timeout_ns=10_000.0))
    h.install_policy()
    h.sim.run(until=1e6)
    assert h.sim.peek() == float("inf")  # the egress pump is parked
    _abandon(h, 1, 3)
    h.sim.run(until=2e6)
    assert h.state.requests_cleaned == 1
    assert h.sim.peek() == float("inf")
    n = h.sim.events_dispatched
    h.sim.run(until=1e9)
    assert h.sim.events_dispatched == n


def test_sweeps_of_many_accelerators_share_one_clock():
    """Abandoned writes on two of four sPIN nodes, opened at different
    times but stale at the same grid instant: one heap entry serves both
    sweeps, so the sanitizer sees no insertion-order tie."""
    tb = build_testbed(n_storage=4, sanitize=True)
    install_spin_targets(tb)
    client = tb.clients[0]
    for i, node in enumerate(("sn1", "sn2")):
        tb.run(until=tb.sim.now + 10_000 * i)
        msg = Message(
            src=client.name, dst=node, op="write",
            data=np.zeros(16_384, dtype=np.uint8),
            headers={"dfs": DfsHeader(greq_id=fresh_msg_id(), op="write",
                                      client_id=1, capability=None,
                                      reply_to=client.name),
                     "wrh": WriteRequestHeader(addr=0), "write_len": 16_384},
            header_bytes=80,
        )
        for pkt in segment_message(msg, tb.params.net.mtu)[:2]:
            client.nic.port.send(pkt)
    tb.run(until=tb.sim.now + 3 * tb.params.pspin.cleanup_timeout_ns)
    assert [tb.node(f"sn{i}").dfs_state.requests_cleaned for i in range(4)] == [0, 1, 1, 0]
    report = tb.sanitize_report()
    assert report.ok, report.summary()


def test_stats_record_instruction_counts():
    h = Harness()
    h.install_policy()
    for pkt in h.write_packets(10_000):
        h.accel.ingest(pkt)
    h.sim.run(until=1_000_000)
    hh = h.accel.stats["header:dfs"]
    assert hh.n == 1 and hh.mean_instructions() == 120
    assert hh.mean_duration() == pytest.approx(211, abs=2)
    assert hh.mean_ipc(1.0) == pytest.approx(0.57, abs=0.02)


# ------------------------------------------------------- one-step hand-offs
class _FixedCost(Handler):
    """A straight-line handler whose cost depends on the packet: odd
    seqs run the (memory-intensive) EC encode loop, even seqs a plain
    compute phase."""

    def cost(self, task, pkt):
        from repro.pspin.isa import ec_data_payload_cost

        if pkt.seq % 2:
            return ec_data_payload_cost(2, 2048)
        return HandlerCost(instructions=200 + 37 * pkt.seq, cpi=1.5)


def _exec_harness(n_hpus):
    from repro.pspin.accelerator import _MessageRun, _PacketRecord

    sim = Simulator()
    params = PsPinParams(n_clusters=1, hpus_per_cluster=n_hpus)
    accel = PsPinAccelerator(sim, params, "node", lambda p: None, lambda a, b: None)
    h = _FixedCost()
    ctx = ExecutionContext(
        name="ec", handlers=HandlerSet(header=h, payload=h, completion=h),
        state=DfsState(NicMemory(sim, params), params), match_ops=("write",),
    )
    run = _MessageRun(sim, 1, ctx, 0)

    def start(t, seqs):
        def go():
            yield sim.timeout(t)
            for s in seqs:
                pkt = Packet(src="c", dst="node", op="write", msg_id=1, seq=s,
                             nseq=16, payload=None)
                rec = _PacketRecord(accel, ctx, pkt)
                rec.run = run
                rec.activate("payload", 0)
        sim.process(go())

    return sim, accel, start


def test_idle_hpu_handler_costs_one_wakeup():
    """A plain handler granted an idle HPU sleeps once, through its
    1 ns dispatch and its compute phase: one wake-up, finishing at the
    float the two sleeps would reach."""
    sim, accel, start = _exec_harness(n_hpus=1)
    sim.run()  # the egress pump parks on its empty queue
    n0 = sim.events_dispatched
    start(0.0, [0])
    sim.run()
    # the starter's two steps (it activates the handler inline) + one wake-up
    assert sim.events_dispatched - n0 == 3
    assert sim.now == (0.0 + 1.0) + 300.0
    assert accel.stats["payload:ec"].durations_ns == [300.0]
    assert accel.clusters[0].pending == []


def test_ec_contention_sees_same_instant_fused_activations():
    """Memory-intensive EC encode handlers share a cluster with
    one-wake-up handlers that activate at the same instants.  Each EC
    handler must count exactly the activations an explicit dispatch
    event would have put before it, so its compute time (L1 contention)
    stays what it was with a dispatch event per handler."""
    sim, accel, start = _exec_harness(n_hpus=8)
    start(0.0, range(6))
    start(250.0, range(6, 10))
    sim.run()
    assert accel.stats["payload:ec"].durations_ns == [
        300.0, 411.0, 522.0, 633.0, 744.0,
        17012.873760000002, 17680.045280000002, 18347.216800000002,
        19014.388320000002, 19014.388320000002,
    ]
    assert accel.clusters[0].pending == [] and accel.clusters[0].active == 0


# ------------------------------------------- heap-callback packet path
class _Boom(RuntimeError):
    pass


class _RaisingPolicy(DfsPolicy):
    """Raises from the payload handler body, before or after a wait."""

    def __init__(self, after_wait):
        self.after_wait = after_wait

    def process_pkt(self, api, task, entry, pkt):
        if self.after_wait:
            yield api.compute(10)
        raise _Boom(f"payload seq {pkt.seq}")


@pytest.mark.parametrize("after_wait", [False, True], ids=["at-once", "after-wait"])
def test_handler_exception_fails_run(after_wait):
    """A handler body that raises fails ``Simulator.run`` with that
    exception, whether it raises on its first step or after a wait."""
    h = Harness()
    h.install_policy(_RaisingPolicy(after_wait))
    for pkt in h.write_packets(4_000):
        h.accel.ingest(pkt)
    with pytest.raises(_Boom, match="payload seq 0"):
        h.sim.run(until=1_000_000)


class _FanOutPolicy(DfsPolicy):
    """Forwards three copies of every packet and waits for the egress
    queue to take each."""

    def process_pkt(self, api, task, entry, pkt):
        for i in range(3):
            yield api.send(pkt.child(src="node", dst=f"n{i}", msg_id=100 + i))


def test_blocked_egress_putter_is_a_sanitizer_finding():
    """An egress port that never finishes a transmission leaves the
    handler's later sends blocked in the egress queue: the quiesce sweep
    reports the blocked putter as ``leak-store``."""
    sim = Simulator(sanitize=True)
    params = PsPinParams(egress_credits=1)
    accel = PsPinAccelerator(sim, params, "node", lambda pkt: sim.event("tx"),
                             lambda addr, payload: sim.event().succeed())
    state = DfsState(NicMemory(sim, params), params)
    accel.install(build_dfs_context("dfs", _FanOutPolicy(), state))
    h = Harness()  # only for its packet builder
    for pkt in h.write_packets(1_000):
        accel.ingest(pkt)
    sim.run(until=1_000_000)
    # one send in flight on the port, one in the single slot, one blocked
    assert len(accel._egress._putters) == 1
    leaks = [f for f in sim.sanitizer.check_quiesce() if f.kind == "leak-store"]
    assert len(leaks) == 1
    assert "putter" in leaks[0].message and "node.accel-egress" in leaks[0].message
    assert "process_pkt" in leaks[0].where  # the blocked send's call site


def _pspin_processes(monkeypatch):
    """Names of the ``Process`` bodies from ``repro.pspin`` started from
    now on."""
    from repro.simnet import engine

    started = []
    orig = engine.Process.__init__

    def spy(self, sim, gen, *a, **kw):
        code = getattr(gen, "gi_code", None)
        if code is not None and "pspin" in code.co_filename:
            started.append(code.co_name)
        orig(self, sim, gen, *a, **kw)

    monkeypatch.setattr(engine.Process, "__init__", spy)
    return started


def test_spin_write_runs_no_pspin_process(monkeypatch):
    """The per-packet pipeline, handler activations and handler egress
    are heap callbacks: a 64 KiB 3-way replicated write and a 64 KiB
    plain write start no ``Process`` from ``repro.pspin``."""
    from repro import DfsClient, ReplicationSpec

    started = _pspin_processes(monkeypatch)
    tb = build_testbed(n_storage=4)
    install_spin_targets(tb)
    c = DfsClient(tb)
    c.create("/r", size=64 * 1024, replication=ReplicationSpec(k=3))
    c.create("/p", size=64 * 1024)
    for path in ("/r", "/p"):
        out = c.write_sync(path, np.full(64 * 1024, 3, np.uint8), protocol="spin")
        assert out.ok
    tb.drain()
    processed = sum(n.accelerator.packets_processed for n in tb.storage_nodes)
    assert processed >= 3 * 32
    assert started == []


def test_quick_hot_shard_runs_no_pspin_process(monkeypatch):
    """Quick ``hot_shard`` (202 sPIN writes from the open loop) starts no
    ``Process`` on the accelerator's path."""
    from repro.scenarios import get, run_scenario

    started = _pspin_processes(monkeypatch)
    row = run_scenario(get("hot_shard", quick=True), seed=1)
    assert row["issued"] > 0
    assert started == []
