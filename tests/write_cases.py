"""Write scenarios shared by the per-packet pins and the deferred-entry
differential: single writes of every protocol, sPIN write mixes, and
racing writers.  Each runner builds its own testbed with default
parameters and returns a comparable result (plus the testbed, where a
caller reads its counters)."""

from __future__ import annotations

import hashlib

import numpy as np

from repro import DfsClient, EcSpec, ReplicationSpec, build_testbed
from repro.params import SimParams
from repro.protocols import (
    install_cpu_replication_targets,
    install_hyperloop_targets,
    install_inec_targets,
    install_rpc_rdma_targets,
    install_rpc_targets,
    install_spin_targets,
)

KiB = 1024

#: seeded loss + corruption with the NIC's retransmission layer on
LOSS = dict(seed=42, loss_prob=0.05, corrupt_prob=0.03, retransmit=True)


def _data(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8)


def _build(telemetry, topology="star", backend="nvmm", faults=None, n_storage=6):
    params = SimParams()
    if faults:
        params = params.with_faults(**faults)
    return build_testbed(
        n_storage=n_storage, params=params, topology=topology,
        storage_backend=backend, telemetry=telemetry,
    )


def _hw_sig(tb):
    """Hardware-counter signature (the observables left with telemetry
    off): final clock plus per-node PCIe and accelerator counters."""
    sig = {"now": tb.sim.now}
    for name, node in sorted(tb.storage.items()):
        acc = node.accelerator
        sig[name] = (
            node.pcie.busy_ns,
            node.pcie.bytes_transferred,
            node.pcie.transactions,
            None if acc is None else (acc.packets_processed, acc.packets_dropped),
        )
    for node in tb.clients:
        sig[node.name] = (node.pcie.busy_ns, node.pcie.bytes_transferred,
                          node.pcie.transactions)
    return sig


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


# ------------------------------------------------------- sPIN scenarios
def _run_spin_scenario(name, telemetry, topology="star", backend="nvmm", faults=None):
    tb = _build(telemetry, topology=topology, backend=backend, faults=faults)
    install_spin_targets(tb)
    c = DfsClient(tb)
    results = []
    if name == "auth":
        c.create("/f", size=64 * KiB)
        out = c.write_sync("/f", _data(64 * KiB), protocol="spin")
        results.append((out.ok, out.latency_ns))
        results.append(bytes(c.read_back("/f")[:100]))
    elif name == "rep":
        c.create("/r", size=32 * KiB, replication=ReplicationSpec(k=3))
        out = c.write_sync("/r", np.full(32 * KiB, 7, np.uint8), protocol="spin")
        results.append((out.ok, out.latency_ns))
    elif name == "ec":
        c.create("/e", size=96 * KiB, ec=EcSpec(k=3, m=2))
        out = c.write_sync("/e", _data(96 * KiB), protocol="spin")
        results.append((out.ok, out.latency_ns))
    elif name == "multi":
        c.create("/a", size=32 * KiB)
        c.create("/b", size=32 * KiB)
        for path in ("/a", "/b"):
            out = c.write_sync(path, np.full(32 * KiB, 9, np.uint8), protocol="spin")
            results.append((out.ok, out.latency_ns))
    else:  # pragma: no cover - guard against typos in the param list
        raise ValueError(name)
    results.append(tb.sim.now)
    return results, tb


# ------------------------------------------------------- every protocol
PROTO = {
    "spin": (install_spin_targets, {}, {}),
    "raw": (None, {}, {}),
    "rpc": (install_rpc_targets, {}, {}),
    "rpc+rdma": (install_rpc_rdma_targets, {}, {}),
    "cpu": (install_cpu_replication_targets,
            {"replication": ReplicationSpec(k=2)}, {"chunk_bytes": 32 * KiB}),
    "rdma-flat": (None, {"replication": ReplicationSpec(k=2)}, {}),
    "rdma-hyperloop": (install_hyperloop_targets,
                       {"replication": ReplicationSpec(k=2)},
                       {"chunk_bytes": 32 * KiB}),
    "inec": (install_inec_targets, {"ec": EcSpec(k=3, m=2)}, {}),
}


def _run_protocol(protocol, telemetry, faults):
    """One 64 KiB write (96 KiB for ``inec``) with ``protocol``."""
    installer, create_kw, write_kw = PROTO[protocol]
    tb = _build(telemetry, faults=faults)
    if installer is not None:
        installer(tb)
    c = DfsClient(tb)
    size = 96 * KiB if protocol == "inec" else 64 * KiB
    c.create("/f", size=size, **create_kw)
    out = c.write_sync("/f", _data(size), protocol=protocol, **write_kw)
    return (out.ok, out.latency_ns, tb.sim.now), tb


# ------------------------------------------------------- racing writers
def _spin_writes(size):
    """Two back-to-back ``size``-byte sPIN writes to ``sn0``, then two
    overlapping ones from two clients, the second 300 ns after the first
    (its burst competes with the first)."""
    tb = build_testbed(n_storage=2, n_clients=2)
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


def _simultaneous_writes(size):
    """``size``-byte sPIN writes from ``client0`` and ``client1`` to
    ``sn0``, both issued at t=0: their bursts meet at one switch egress."""
    tb = build_testbed(n_storage=2, n_clients=2)
    install_spin_targets(tb)
    clients = [DfsClient(tb, client_index=i, principal=f"c{i}") for i in range(2)]
    for i, c in enumerate(clients):
        tb.metadata.create(f"/f{i}", size=size, pin_nodes=["sn0"])
        c.open(f"/f{i}")
    evs = [c.write(f"/f{i}", _data(size, i), protocol="spin") for i, c in enumerate(clients)]
    tb.run(until=5_000_000)
    return [(e.value.ok, e.value.latency_ns) for e in evs], tb.sim.now
