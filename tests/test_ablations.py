"""Ablations: design-space claims around the paper's figures.

Each test sweeps one knob the paper argues about (topology, MTU, QoS
quotas, threat model, HPU count, accumulator pool, interleaving, chunk
size) or one cost it motivates (incast, traffic split, storage
amplification, striping, recovery) and asserts the shape of the result.
Parts already pinned elsewhere are not repeated here: tamper detection
(test_threat_models.py), striping's latency win (test_striped.py),
degraded read slower than healthy and rebuild byte accounting
(test_recovery.py).
"""

import numpy as np
import pytest

from repro import Rights
from repro.core.policies.dispatch import DispatchPolicy
from repro.dfs.client import DfsClient
from repro.dfs.cluster import build_testbed
from repro.dfs.layout import EcSpec, ReplicationSpec, StripeSpec
from repro.experiments.common import KiB, MiB, fresh_client, measure_latency
from repro.params import SimParams
from repro.protocols import (
    create_striped,
    degraded_read,
    install_spin_targets,
    read_back_striped,
    striped_write,
)
from repro.protocols.base import WriteContext
from repro.protocols.threat import install_threat_targets, threat_write
from repro.workloads import (
    measure_goodput,
    payload_bytes,
)

#: the achievable goodput ceiling of one 400 Gbit/s port (2 KiB MTU,
#: 64 B of headers per packet)
LINE_GBPS = 400.0 * 2048 / 2112


# ------------------------------------------------------------ topology
def _spin_testbed(**kw):
    tb = build_testbed(**kw)
    install_spin_targets(tb)
    return tb, DfsClient(tb)


def _topology_latency(topology):
    tb, c = _spin_testbed(n_storage=4, topology=topology)
    c.create("/f", size=64 * KiB)
    out = c.write_sync("/f", payload_bytes(64 * KiB), protocol="spin")
    assert out.ok
    return out.latency_ns


def _topology_goodput(topology, uplink=None):
    tb, c = _spin_testbed(n_storage=4, topology=topology, uplink_gbps=uplink)
    c.create("/f", size=64 * KiB)
    data = payload_bytes(64 * KiB)
    res = measure_goodput(tb, lambda i: c.write("/f", data, protocol="spin"),
                          n_ops=24, op_bytes=64 * KiB, window=12)
    return res.goodput_gbps


def test_topology_and_oversubscription():
    """A leaf-spine fabric adds switch hops (latency) but no bandwidth
    limit at 1:1; at 4:1 the spine uplink, not the NIC, caps goodput."""
    lat_star = _topology_latency("star")
    lat_ls = _topology_latency("leafspine")
    assert lat_star < lat_ls < lat_star + 3000
    g_star = _topology_goodput("star")
    assert _topology_goodput("leafspine", uplink=400.0) > 0.85 * g_star
    assert 60.0 < _topology_goodput("leafspine", uplink=100.0) < 110.0


def test_replicated_write_correct_on_oversubscribed_leafspine():
    tb, c = _spin_testbed(n_storage=4, topology="leafspine", uplink_gbps=100.0)
    lay = c.create("/f", size=128 * KiB, replication=ReplicationSpec(k=3))
    data = payload_bytes(100 * KiB)
    assert c.write_sync("/f", data, protocol="spin").ok
    for e in lay.extents:
        assert np.array_equal(tb.node(e.node).memory.view(e.addr, data.nbytes), data)


# ----------------------------------------------------------------- MTU
def _mtu_point(mtu):
    """(write latency, encode instructions per payload byte) of one
    256 KiB RS(3,2) sPIN write."""
    tb, c = _spin_testbed(n_storage=8, params=SimParams().with_net(mtu=mtu))
    lay = c.create("/f", size=256 * KiB, ec=EcSpec(k=3, m=2))
    out = c.write_sync("/f", payload_bytes(256 * KiB), protocol="spin")
    assert out.ok
    instr = sum(
        sum(tb.node(ext.node).accelerator.stats["payload:dfs"].instructions)
        for ext in lay.extents
    )
    # every payload byte passes exactly one data-node payload handler
    return out.latency_ns, instr / (256 * KiB)


def test_mtu_trades_parallelism_for_efficiency():
    """Larger packets amortize the fixed per-packet encode cost; smaller
    ones spread a chunk over more HPUs and lower single-write latency."""
    lats, ipbs = zip(*(_mtu_point(m) for m in (1024, 2048, 4096, 8192)))
    assert all(b < a for a, b in zip(ipbs, ipbs[1:]))
    assert all(b > a * 0.98 for a, b in zip(lats, lats[1:]))


def test_request_headers_must_fit_one_packet():
    with pytest.raises(ValueError):
        measure_latency("spin", 4 * KiB, params=SimParams().with_net(mtu=64),
                        ec=EcSpec(k=3, m=2), repeats=1)


# ----------------------------------------------------------------- QoS
def _light_tenant_latency(heavy_quota):
    """Latency of a light tenant's 4 KiB writes to a node on which a
    heavy tenant streams 256 KiB RS(3,2) writes."""
    from repro.core.request import WriteRequestHeader, request_header_bytes
    from repro.protocols.base import wrap_result
    from repro.rdma.nic import fresh_greq_id

    tb = build_testbed(n_storage=8)
    for node in tb.storage_nodes:
        node.install_pspin(DispatchPolicy(), authority=tb.authority,
                           n_accumulators=128, accumulator_bytes=2048,
                           hpu_quota=heavy_quota)
        # the light tenant's context matches a dedicated op class
        node.add_pspin_context(DispatchPolicy(), match_ops=("write_light",))
    heavy = DfsClient(tb, principal="tenant-heavy")
    light = DfsClient(tb, principal="tenant-light")
    hot_nodes = {e.node for e in heavy.create(
        "/big", size=256 * KiB, ec=EcSpec(k=3, m=2)).extents}
    # co-locate the light tenant on one of the heavy tenant's data nodes
    attempt = 0
    while True:
        path = f"/small{attempt}"
        light_lay = light.create(path, size=8 * KiB)
        if light_lay.primary.node in hot_nodes:
            break
        attempt += 1
    heavy_data = payload_bytes(256 * KiB)
    light_data = payload_bytes(4 * KiB)
    background = [heavy.write("/big", heavy_data, protocol="spin") for _ in range(6)]

    def issue_light(i):
        ctx = WriteContext(light.node, light.client_id, light.ticket(path))
        greq = fresh_greq_id()
        dfs = ctx.dfs_header(greq)
        wrh = WriteRequestHeader(addr=light_lay.primary.addr)
        done = light.node.nic.post_write(
            dst=light_lay.primary.node, data=light_data,
            headers={"dfs": dfs, "wrh": wrh, "write_len": light_data.nbytes},
            header_bytes=request_header_bytes(dfs, wrh),
            greq_id=greq, op="write_light",
        )
        return wrap_result(tb.sim, done, light_data.nbytes, "light")

    stats = measure_goodput(tb, issue_light, n_ops=24,
                            op_bytes=light_data.nbytes, window=4).latency
    for ev in background:
        assert tb.sim.run_until_event(ev).ok
    return stats


def test_hpu_quota_protects_light_tenant():
    free = _light_tenant_latency(heavy_quota=None)
    capped = _light_tenant_latency(heavy_quota=8)  # 8 of 32 HPUs
    # without a quota, light handlers queue behind 16-23 us EC handlers
    assert capped["p99"] < free["p99"] / 5
    assert capped["median"] < free["p99"] / 10


# -------------------------------------------------------- threat models
def _threat_latency(mode, size):
    tb = build_testbed(n_storage=4)
    install_threat_targets(tb, mode)
    c = DfsClient(tb)
    lay = c.create("/f", size=size * 2)
    ctx = WriteContext(c.node, c.client_id, c.ticket("/f"))
    data = np.random.default_rng(0).integers(0, 256, size, dtype=np.uint8)
    res = tb.run_until(threat_write(ctx, lay, data, mode))
    assert res.ok
    return res.latency_ns


def test_threat_model_cost_spectrum():
    """Trusting less costs more; per-packet MACs dominate large writes
    while header-only checks are amortized."""
    lat = {(mode, s): _threat_latency(mode, s)
           for mode in ("trusted", "capability", "packet-mac")
           for s in (1 * KiB, 64 * KiB)}
    for s in (1 * KiB, 64 * KiB):
        assert lat["trusted", s] <= lat["capability", s] < lat["packet-mac", s]
    assert lat["packet-mac", 64 * KiB] > 2 * lat["capability", 64 * KiB]
    assert lat["capability", 64 * KiB] < 1.1 * lat["trusted", 64 * KiB]


# --------------------------------------------------------- HPU scaling
def _ec_encode_goodput(n_clusters):
    tb, client = fresh_client("spin", SimParams().with_pspin(n_clusters=n_clusters))
    client.create("/f", size=64 * KiB, ec=EcSpec(k=3, m=2))
    data = payload_bytes(64 * KiB)
    res = measure_goodput(tb, lambda i: client.write("/f", data, protocol="spin"),
                          n_ops=24, op_bytes=64 * KiB, window=16)
    return res.goodput_gbps


def test_hpu_scaling_lifts_ec_throughput():
    """PsPIN scales out by clusters: 4x the HPUs clearly lifts the
    handler-bound RS(3,2) goodput, and 512 HPUs (the Fig. 16 RS(6,3)
    target) does not regress it."""
    g32, g128, g512 = (_ec_encode_goodput(n) for n in (4, 16, 64))
    assert g128 > 1.5 * g32
    assert g512 >= g128


# -------------------------------------------------------------- incast
def _incast(n_clients):
    """Aggregate goodput and per-client finish times of ``n_clients``
    each writing twelve 64 KiB objects that all live on sn0."""
    tb = build_testbed(n_storage=2, n_clients=n_clients)
    install_spin_targets(tb)
    paths, attempt = [], 0
    for i in range(n_clients):
        c = DfsClient(tb, i, f"c{i}")
        while True:
            path = f"/f{i}-{attempt}"
            attempt += 1
            if c.create(path, size=64 * KiB).primary.node == "sn0":
                paths.append((c, path))
                break
    data = payload_bytes(64 * KiB)
    sim = tb.sim
    t0 = sim.now
    writes = [[c.write(path, data, protocol="spin") for _ in range(12)]
              for c, path in paths]
    finish = []
    for evs in writes:
        for ev in evs:
            assert sim.run_until_event(ev).ok
        finish.append(sim.now)
    gbps = n_clients * 12 * 64 * KiB * 8.0 / (sim.now - t0)
    return gbps, finish


def test_incast_aggregate_and_fairness():
    g1, _ = _incast(1)
    g4, finish4 = _incast(4)
    assert g1 < g4 <= LINE_GBPS * 1.02
    assert g4 > 0.6 * LINE_GBPS
    spread = (max(finish4) - min(finish4)) / max(finish4)
    assert spread < 0.5, f"one client starved (finish-time spread {spread:.2f})"


# -------------------------------------------------------- accumulators
def _ec_write(n_accumulators, size, k, m, interleave):
    """(latency, CPU fallbacks, peak accumulators in use, bytes
    recoverable after losing the first data node) of one EC write."""
    tb = build_testbed(n_storage=8)
    install_spin_targets(tb, n_accumulators=n_accumulators)
    client = DfsClient(tb)
    lay = client.create("/f", size=size, ec=EcSpec(k=k, m=m))
    data = payload_bytes(size)
    out = client.write_sync("/f", data, protocol="spin", interleave=interleave)
    assert out.ok
    pools = [n.dfs_state.accumulators for n in tb.storage_nodes
             if n.dfs_state is not None]
    recovered = client.recover("/f", {lay.extents[0].node})
    return (out.latency_ns, sum(p.fallbacks for p in pools),
            max(p.peak_in_use for p in pools), np.array_equal(recovered, data))


def test_accumulator_exhaustion_falls_back_to_cpu():
    """A sequential client makes the parity node hold an accumulator per
    aggregation sequence; a tiny pool runs dry and the host CPU takes
    over: same parity, higher latency."""
    lat_big, fb_big, _, ok_big = _ec_write(128, 128 * KiB, 3, 2, interleave=False)
    lat_tiny, fb_tiny, _, ok_tiny = _ec_write(2, 128 * KiB, 3, 2, interleave=False)
    assert ok_big and ok_tiny
    assert fb_big == 0 and fb_tiny > 0
    assert lat_tiny > lat_big


def test_interleaving_cuts_latency_and_accumulator_pressure():
    """Interleaving packets across the k data nodes overlaps encode with
    aggregation and shortens how long parity accumulators are held."""
    lat_seq, _, peak_seq, ok_seq = _ec_write(256, 256 * KiB, 4, 2, interleave=False)
    lat_int, _, peak_int, ok_int = _ec_write(256, 256 * KiB, 4, 2, interleave=True)
    assert ok_seq and ok_int
    assert lat_int < lat_seq
    assert peak_seq > peak_int


# ---------------------------------------------------------- chunk size
def test_cpu_ring_chunk_size_has_interior_optimum():
    """Tiny chunks pay per-chunk dispatch; one whole-message chunk loses
    pipelining.  The paper quotes CPU strategies at the optimum."""
    chunks = [1 * KiB, 4 * KiB, 16 * KiB, 64 * KiB, 256 * KiB, 1 * MiB]
    lats = {c: measure_latency("cpu", 1 * MiB,
                               replication=ReplicationSpec(k=4, strategy="ring"),
                               repeats=1, chunk_bytes=c)
            for c in chunks}
    best = min(lats, key=lats.get)
    assert best not in (chunks[0], chunks[-1])
    assert lats[chunks[-1]] / lats[best] > 1.2


# -------------------------------------------------------- traffic split
def _traffic(protocol, size, k):
    tb = build_testbed(n_storage=8)
    if protocol == "spin":
        install_spin_targets(tb)  # rdma-flat bypasses policies (§V-B)
    c = DfsClient(tb)
    c.create("/f", size=size, replication=ReplicationSpec(k=k, strategy="ring"))
    out = c.write_sync("/f", payload_bytes(size), protocol=protocol)
    assert out.ok
    tb.run(until=tb.sim.now + 300_000)
    storage_tx = sum(n.nic.port.tx_bytes for n in tb.storage_nodes)
    return c.node.nic.port.tx_bytes, storage_tx, out.latency_ns


def test_traffic_split_by_strategy():
    """RDMA-Flat makes the client inject k copies; with sPIN the client
    injects one and the storage NICs fan out.  Fabric totals match."""
    size, k = 256 * KiB, 4
    flat_c, flat_s, flat_lat = _traffic("rdma-flat", size, k)
    spin_c, spin_s, spin_lat = _traffic("spin", size, k)
    assert flat_c > (k - 0.5) * size
    assert size <= spin_c < 1.2 * size
    assert spin_s > (k - 1.5) * size
    assert spin_c + spin_s == pytest.approx(flat_c + flat_s, rel=0.2)
    assert spin_lat < flat_lat


# --------------------------------------------------- storage efficiency
def _amplification(replication=None, ec=None):
    size = 192 * KiB
    tb, c = _spin_testbed(n_storage=12)
    c.create("/f", size=size, replication=replication, ec=ec)
    out = c.write_sync("/f", payload_bytes(size), protocol="spin")
    assert out.ok
    tb.run(until=tb.sim.now + 300_000)
    return sum(n.memory.bytes_written for n in tb.storage_nodes) / size, out.latency_ns


def test_storage_efficiency_vs_failure_tolerance():
    """At equal failure tolerance EC stores at least 2x fewer bytes than
    replication and pays for it in write latency."""
    rep3, rep3_lat = _amplification(replication=ReplicationSpec(k=3))
    rs42, rs42_lat = _amplification(ec=EcSpec(k=4, m=2))
    rep4, _ = _amplification(replication=ReplicationSpec(k=4))
    rs63, _ = _amplification(ec=EcSpec(k=6, m=3))
    assert rep3 == pytest.approx(3.0, abs=0.01)
    assert rep4 == pytest.approx(4.0, abs=0.01)
    assert rs42 == pytest.approx(1.5, abs=0.01)
    assert rs63 == pytest.approx(1.5, abs=0.01)
    assert rs42_lat > rep3_lat


# ------------------------------------------------------------ striping
def _durable_goodput(width):
    size = 4 * MiB
    tb, c = _spin_testbed(n_storage=10, storage_backend="nvme")
    lay = create_striped(tb, "/s", size=size,
                         stripe=StripeSpec(width=width, stripe_size=512 * KiB))
    cap = tb.authority.issue(c.client_id, lay.object_id, 0,
                             tb.params.storage_capacity_bytes, Rights.RW)
    data = payload_bytes(size)
    out = tb.run_until(striped_write(WriteContext(c.node, c.client_id, cap), lay, data))
    assert out.ok
    tb.run(until=tb.sim.now + 500_000)
    assert np.array_equal(read_back_striped(tb, lay), data)
    return out.goodput_gbps()


def test_striping_is_flash_bound_then_wire_bound():
    """One NVMe device sustains ~128 Gbit/s; widening the stripe recovers
    bandwidth until the 400 Gbit/s wire binds."""
    g = {w: _durable_goodput(w) for w in (1, 2, 4, 8)}
    assert g[1] < 140.0
    assert all(g[b] >= g[a] * 0.98 for a, b in ((1, 2), (2, 4), (4, 8)))
    assert g[8] == pytest.approx(g[4], rel=0.15)


# ------------------------------------------------------------ recovery
def test_degraded_read_penalty_is_bounded():
    tb, c = _spin_testbed(n_storage=10)
    lay = c.create("/obj", size=240 * KiB, ec=EcSpec(k=4, m=2))
    data = payload_bytes(240 * KiB)
    assert c.write_sync("/obj", data, protocol="spin").ok
    tb.run(until=tb.sim.now + 300_000)
    healthy = c.read_sync("/obj", length=lay.size, protocol="raw").latency_ns
    tb.node(lay.extents[1].node).fail()
    got, degraded = tb.run_until(degraded_read(tb, "/obj", {lay.extents[1].node}))
    assert np.array_equal(got, data)
    assert degraded < 10 * healthy
