"""Short accelerator trains and stored packet sizes.

The accelerator paces a coalesced train (closed-form pipeline, one
driver process) only when it has at least
:data:`~repro.pspin.accelerator.TRAIN_PACE_MIN_PACKETS` packets; shorter
trains take the NIC's per-packet stepper.  Both routes must produce the
simulation the forced per-packet path (``coalescing=False``) produces,
on either side of the threshold.

A packet's ``size`` is stored at construction, so every site that
forwards or rewrites a packet must build it with its final headers and
payload: the size check spies on every packet handed to a port.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import DfsClient, EcSpec, Rights, ReplicationSpec, build_testbed
from repro.params import SimParams
from repro.protocols import install_log_targets, install_spin_targets, log_append
from repro.protocols.base import WriteContext
from repro.protocols.threat import install_threat_targets, threat_write
from repro.pspin import accelerator as accel_mod
from repro.simnet.link import Port
from repro.simnet.packet import TRANSPORT_HEADER_BYTES

KiB = 1024


def _data(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8)


def _stats_digest(tb) -> str:
    """sha256 prefix of every accelerator's HandlerStats and counters."""
    stats = []
    for name, node in sorted(tb.storage.items()):
        acc = node.accelerator
        for key, st in sorted(acc.stats.items()):
            stats.append((name, key, tuple(st.durations_ns), tuple(st.instructions)))
        stats.append((name, acc.packets_processed, acc.packets_dropped,
                      acc.forwarded_packets, acc.nacks_sent))
    return hashlib.sha256(repr(stats).encode()).hexdigest()[:16]


def _spin_writes(size, coalescing):
    """Two back-to-back ``size``-byte sPIN writes to ``sn0`` (trains form
    on an idle path), then two overlapping ones from two clients, the
    second 300 ns after the first (its burst competes with the first)."""
    params = SimParams(coalescing=coalescing)
    tb = build_testbed(n_storage=2, n_clients=2, params=params)
    install_spin_targets(tb)
    clients = [DfsClient(tb, client_index=i, principal=f"c{i}") for i in range(2)]
    for i, c in enumerate(clients):
        tb.metadata.create(f"/f{i}", size=size, pin_nodes=["sn0"])
        c.open(f"/f{i}")
    outcomes = []
    for seed in range(2):
        out = tb.run_until(clients[0].write("/f0", _data(size, seed), protocol="spin"))
        outcomes.append((out.ok, out.latency_ns))
    evs = []

    def overlap():
        for i, c in enumerate(clients):
            if i:
                yield tb.sim.timeout(300.0)
            evs.append(c.write(f"/f{i}", _data(size, 2 + i), protocol="spin"))

    tb.sim.process(overlap())
    tb.run(until=tb.sim.now + 5_000_000)
    assert all(e.triggered for e in evs), "a write never completed"
    outcomes += [(e.value.ok, e.value.latency_ns) for e in evs]
    return outcomes, _stats_digest(tb), tb.sim.now


# Trains form only with telemetry off, hence the ``teloff`` in each id.
@pytest.mark.parametrize("kib", [2, 4, 8, 10, 12, 16], ids=lambda kib: f"{kib}-teloff")
def test_short_and_long_trains_match_slow_path(kib):
    fast = _spin_writes(kib * KiB, True)
    assert all(ok for ok, _lat in fast[0])
    assert fast == _spin_writes(kib * KiB, False)


def _offered_trains(monkeypatch, size):
    """Run one ``size``-byte sPIN write; return ``(packets, paced)`` for
    every train offered to an accelerator and the ``_AccelTrain`` lengths
    built."""
    offered, built = [], []
    orig_ingest = accel_mod.PsPinAccelerator.ingest_train
    orig_train = accel_mod._AccelTrain

    def ingest_spy(self, wt, nic):
        paced = orig_ingest(self, wt, nic)
        offered.append((len(wt.pkts), paced))
        return paced

    class TrainSpy(orig_train):
        __slots__ = ()

        def __init__(self, wire, *a):
            built.append(len(wire.pkts))
            super().__init__(wire, *a)

    monkeypatch.setattr(accel_mod.PsPinAccelerator, "ingest_train", ingest_spy)
    monkeypatch.setattr(accel_mod, "_AccelTrain", TrainSpy)
    tb = build_testbed(n_storage=2)
    install_spin_targets(tb)
    c = DfsClient(tb)
    tb.metadata.create("/f", size=size, pin_nodes=["sn0"])
    c.open("/f")
    assert tb.run_until(c.write("/f", _data(size), protocol="spin")).ok
    return offered, built


def test_three_packet_train_takes_per_packet_path(monkeypatch):
    offered, built = _offered_trains(monkeypatch, 4 * KiB)
    assert offered == [(3, False)]
    assert built == []


def test_nine_packet_train_is_paced(monkeypatch):
    offered, built = _offered_trains(monkeypatch, 16 * KiB)
    assert offered == [(9, True)]
    assert built == [9]
    assert accel_mod.TRAIN_PACE_MIN_PACKETS <= 9


# ------------------------------------------------------ stored wire sizes

def _spy_sizes(monkeypatch):
    """Record every packet handed to any port (coalescing off, so each
    hop goes through ``Port.enqueue``) and check its stored size."""
    seen = []
    orig = Port.enqueue

    def spy(self, pkt, done=None):
        nbytes = 0 if pkt.payload is None else pkt.payload.nbytes
        assert pkt.payload_bytes == nbytes, pkt
        assert pkt.size == TRANSPORT_HEADER_BYTES + pkt.header_bytes + nbytes, pkt
        assert pkt.is_header == (pkt.seq == 0)
        assert pkt.is_completion == (pkt.seq == pkt.nseq - 1)
        seen.append(pkt)
        orig(self, pkt, done)

    monkeypatch.setattr(Port, "enqueue", spy)
    return seen


def _spin_testbed():
    tb = build_testbed(n_storage=6, params=SimParams(coalescing=False))
    install_spin_targets(tb)
    return tb, DfsClient(tb)


def _replicated(tb, c):
    c.create("/r", size=16 * KiB, replication=ReplicationSpec(k=3))
    return tb.run_until(c.write("/r", _data(16 * KiB), protocol="spin"))


def _erasure(tb, c):
    c.create("/e", size=48 * KiB, ec=EcSpec(k=3, m=2))
    return tb.run_until(c.write("/e", _data(48 * KiB), protocol="spin"))


@pytest.mark.parametrize("scenario", [_replicated, _erasure], ids=["rep-k3", "ec-rs32"])
def test_forwarded_packets_carry_their_wire_size(monkeypatch, scenario):
    seen = _spy_sizes(monkeypatch)
    tb, c = _spin_testbed()
    assert scenario(tb, c).ok
    # forwarded headers and payloads went through the spy
    fwd = [p for p in seen if p.src.startswith("sn") and p.op == "write"]
    assert any(p.is_header and p.header_bytes > 0 for p in fwd)
    assert any(not p.is_header and p.header_bytes == 0 for p in fwd)


def test_log_forwarded_packets_carry_their_wire_size(monkeypatch):
    seen = _spy_sizes(monkeypatch)
    tb = build_testbed(n_storage=6, params=SimParams(coalescing=False))
    log = install_log_targets(tb, "/log", capacity=64 * KiB, k=3)
    c = DfsClient(tb)
    c._tickets["/log"] = tb.metadata.issue_ticket(c.client_id, "/log", Rights.RW)
    ctx = WriteContext(c.node, c.client_id, c.ticket("/log"))
    assert tb.run_until(log_append(ctx, log, _data(6 * KiB))).ok
    fwd = [p for p in seen if p.src.startswith("sn") and p.op == "log_append"]
    assert any(p.is_header and "assigned_offset" in p.headers for p in fwd)
    assert any(not p.is_header for p in fwd)


def test_packet_mac_packets_carry_their_wire_size(monkeypatch):
    seen = _spy_sizes(monkeypatch)
    tb = build_testbed(n_storage=4, params=SimParams(coalescing=False))
    install_threat_targets(tb, "packet-mac")
    c = DfsClient(tb)
    lay = c.create("/f", size=16 * KiB)
    ctx = WriteContext(c.node, c.client_id, c.ticket("/f"))
    res = tb.run_until(threat_write(ctx, lay, _data(16 * KiB), "packet-mac",
                                    tamper_packet=2))
    assert not res.ok and res.nacks[0]["reason"] == "integrity"
    macs = [p for p in seen if "mac" in p.headers]
    assert {p.seq for p in macs} == set(range(9))
    # the MAC adds 8 header bytes to every packet after the header
    assert all(p.header_bytes == 8 for p in macs if not p.is_header)
