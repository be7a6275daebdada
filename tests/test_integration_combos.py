"""Cross-feature integration: combinations of topology, backend,
control plane, and policies working together."""

import numpy as np
import pytest

from repro import DfsClient, EcSpec, ReplicationSpec, build_testbed
from repro.dfs.control_rpc import ControlPlaneClient, install_control_plane
from repro.protocols import install_spin_targets

KiB = 1024


def test_leafspine_plus_nvme_plus_ec():
    """Oversubscribed fabric + flash durability + streaming EC, at once."""
    tb = build_testbed(n_storage=8, topology="leafspine", uplink_gbps=200.0,
                       storage_backend="nvme")
    install_spin_targets(tb)
    c = DfsClient(tb)
    lay = c.create("/x", size=96 * KiB, ec=EcSpec(k=3, m=2))
    data = np.random.default_rng(0).integers(0, 256, 96 * KiB, dtype=np.uint8)
    out = c.write_sync("/x", data, protocol="spin")
    assert out.ok
    rec = c.recover("/x", {lay.extents[0].node, lay.parity_extents[0].node})
    assert np.array_equal(rec, data)


def test_control_plane_on_leafspine():
    tb = build_testbed(n_storage=4, topology="leafspine")
    install_spin_targets(tb)
    install_control_plane(tb)  # mds lands on the storage leaf
    cp = ControlPlaneClient(tb, tb.clients[0])
    res = tb.run_until(cp.create("/f", 8 * KiB))
    assert res.ok
    # cross-leaf metadata RPC costs more than the paper's flat network
    assert res.latency_ns > 2_000


def test_mixed_protocols_one_testbed():
    """RPC targets and sPIN targets can coexist: the RPC handler runs on
    the CPU while the NIC context serves spin writes."""
    from repro.protocols import install_rpc_targets

    tb = build_testbed(n_storage=4)
    install_spin_targets(tb)
    install_rpc_targets(tb)
    c = DfsClient(tb)
    c.create("/a", size=32 * KiB)
    c.create("/b", size=32 * KiB)
    da = np.full(16 * KiB, 1, np.uint8)
    db = np.full(16 * KiB, 2, np.uint8)
    assert c.write_sync("/a", da, protocol="spin").ok
    assert c.write_sync("/b", db, protocol="rpc").ok
    assert np.array_equal(c.read_back("/a")[: da.nbytes], da)
    assert np.array_equal(c.read_back("/b")[: db.nbytes], db)


def test_experiment_runs_are_deterministic():
    from repro.experiments import run

    a = run("fig06", quick=True)
    b = run("fig06", quick=True)
    assert a == b


def test_replication_on_nvme_waits_for_all_flash():
    tb = build_testbed(n_storage=6, storage_backend="nvme")
    install_spin_targets(tb)
    c = DfsClient(tb)
    lay = c.create("/r", size=32 * KiB, replication=ReplicationSpec(k=3))
    data = np.random.default_rng(1).integers(0, 256, 32 * KiB, dtype=np.uint8)
    out = c.write_sync("/r", data, protocol="spin")
    assert out.ok
    # at ack time every replica is already durable on flash
    for e in lay.extents:
        assert np.array_equal(tb.node(e.node).memory.view(e.addr, data.nbytes), data)
    # and the latency includes at least one flash program
    assert out.latency_ns > 10_000


def test_qos_quota_context_is_public_api():
    from repro.core.policies.dispatch import DispatchPolicy

    tb = build_testbed(n_storage=2)
    node = tb.storage_nodes[0]
    node.install_pspin(DispatchPolicy(), authority=tb.authority, hpu_quota=4)
    ctx = node.accelerator.contexts[0]
    assert ctx.hpu_quota == 4 and ctx._quota_sem is not None
    with pytest.raises(ValueError):
        from repro.core.handlers import build_dfs_context

        build_dfs_context("x", DispatchPolicy(), node.dfs_state, hpu_quota=0)
