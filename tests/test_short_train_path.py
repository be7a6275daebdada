"""Stored packet sizes.

A packet's ``size`` is stored at construction, so every site that
forwards or rewrites a packet must build it with its final headers and
payload: the size check spies on every packet handed to a port.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DfsClient, EcSpec, Rights, ReplicationSpec, build_testbed
from repro.protocols import install_log_targets, install_spin_targets, log_append
from repro.protocols.base import WriteContext
from repro.protocols.threat import install_threat_targets, threat_write
from repro.simnet.link import Port
from repro.simnet.packet import TRANSPORT_HEADER_BYTES

KiB = 1024


def _data(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8)


# ------------------------------------------------------ stored wire sizes

def _spy_sizes(monkeypatch):
    """Record every packet handed to any port (every hop goes through
    ``Port.enqueue``) and check its stored size."""
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
    tb = build_testbed(n_storage=6)
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
    tb = build_testbed(n_storage=6)
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
    tb = build_testbed(n_storage=4)
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
