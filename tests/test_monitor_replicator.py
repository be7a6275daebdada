"""Heartbeat monitor + re-replicator: detection, repair, determinism."""

import dataclasses

import numpy as np
import pytest

from repro.dfs import build_testbed
from repro.dfs.client import DfsClient
from repro.dfs.layout import FileLayout, ReplicationSpec
from repro.dfs.monitor import MonitorConfig, install_monitor
from repro.dfs.nodes import StorageNode
from repro.dfs.replicator import ReplicatorConfig, ReReplicator
from repro.experiments.common import MiB, installer_for
from repro.params import SimParams

INTERVAL = 50_000.0
MISS = 3


def storm_testbed(seed=7, n_storage=8, max_inflight=2, protocol="spin"):
    params = dataclasses.replace(
        SimParams(), storage_capacity_bytes=4 * MiB
    ).with_faults(retransmit=True, rto_ns=30_000.0, rto_max_ns=120_000.0,
                  max_retransmits=3, seed=seed)
    tb = build_testbed(
        n_storage=n_storage, n_clients=1, params=params,
        placement="domain",
        failure_domains={f"sn{i}": i // 2 for i in range(n_storage)},
    )
    installer_for(protocol)(tb)
    mon = install_monitor(
        tb, config=MonitorConfig(interval_ns=INTERVAL, miss_threshold=MISS)
    )
    repl = ReReplicator(tb, ReplicatorConfig(max_inflight=max_inflight),
                        monitor=mon)
    return tb, mon, repl


def write_files(tb, n=6, size=4096, protocol="spin"):
    cl = DfsClient(tb, client_index=0)
    data = (np.arange(size, dtype=np.uint8) * 7 + 3).astype(np.uint8)
    for i in range(n):
        cl.create(f"/f{i}", size=size * 2, replication=ReplicationSpec(k=3))
        out = cl.write_sync(f"/f{i}", data, protocol=protocol)
        assert out.ok, out.nacks
    return data


def drain(tb, mon, repl, victims):
    for _ in range(200):
        tb.run(until=tb.sim.now + INTERVAL)
        if all(mon.is_dead(v) for v in victims) and repl.pending() == 0:
            return True
    return False


# ---------------------------------------------------------------- detection
def test_heartbeats_keep_live_nodes_alive():
    tb, mon, _ = storm_testbed()
    tb.run(until=20 * INTERVAL)  # many sweeps, nobody dies
    assert mon.dead == {}
    assert mon.beats_received > 0
    assert tb.metadata.dead_nodes() == []


def test_death_detected_within_miss_budget():
    tb, mon, _ = storm_testbed()
    t_kill = 4 * INTERVAL
    def killer():
        yield tb.sim.timeout(t_kill)
        tb.node("sn3").fail()
    tb.sim.process(killer(), name="killer")
    tb.run(until=t_kill + (MISS + 2) * INTERVAL)
    assert mon.is_dead("sn3")
    detect = mon.dead["sn3"] - t_kill
    assert MISS * INTERVAL <= detect <= (MISS + 2) * INTERVAL
    # verdict propagated to placement and management
    assert not tb.metadata.is_alive("sn3")
    assert not tb.mgmt.is_healthy("sn3")
    # nobody else got declared
    assert list(mon.dead) == ["sn3"]


# ------------------------------------------------------------------- repair
def test_repair_restores_redundancy_and_bytes():
    tb, mon, repl = storm_testbed()
    data = write_files(tb, n=6)
    md = tb.metadata
    assert md.allocated_bytes() == md.live_layout_bytes()
    def killer():
        yield tb.sim.timeout(2 * INTERVAL)
        tb.node("sn2").fail()
    tb.sim.process(killer(), name="killer")
    assert drain(tb, mon, repl, ["sn2"])
    assert repl.schedule and not repl.failed_repairs
    for path, lay in md.objects():
        assert isinstance(lay, FileLayout)
        for e in lay.extents:
            # no layout references the dead node, and every replica
            # (including repaired ones) holds the payload bytes
            assert e.node != "sn2", path
            got = tb.node(e.node).memory.read(e.addr, len(data))
            assert np.array_equal(got, data), (path, e)
    assert md.allocated_bytes() == md.live_layout_bytes()
    md.allocator.check()


def test_repair_excludes_existing_replica_nodes():
    tb, mon, repl = storm_testbed()
    write_files(tb, n=4)
    tb.node("sn2").fail()
    mon.declare_dead("sn2")
    assert drain(tb, mon, repl, ["sn2"])
    for _, lay in tb.metadata.objects():
        nodes = [e.node for e in lay.extents]
        assert len(nodes) == len(set(nodes))  # still k distinct nodes


def test_inflight_budget_respected():
    tb, mon, repl = storm_testbed(max_inflight=2)
    write_files(tb, n=10)
    tb.node("sn2").fail()
    tb.node("sn3").fail()
    mon.declare_dead("sn2")
    mon.declare_dead("sn3")
    assert drain(tb, mon, repl, ["sn2", "sn3"])
    assert repl.extents_repaired > 2
    assert repl.peak_inflight <= 2


def test_repair_schedule_is_deterministic():
    def one_run():
        tb, mon, repl = storm_testbed(seed=11)
        write_files(tb, n=6)
        def killer():
            yield tb.sim.timeout(2 * INTERVAL)
            tb.node("sn4").fail()
        tb.sim.process(killer(), name="killer")
        assert drain(tb, mon, repl, ["sn4"])
        return [dataclasses.astuple(r) for r in repl.schedule]

    assert one_run() == one_run()


def test_unrepairable_object_is_recorded_not_crashed():
    tb, mon, repl = storm_testbed()
    cl = DfsClient(tb, client_index=0)
    cl.create("/lonely", size=4096)  # single extent, no redundancy
    victim = tb.metadata.lookup("/lonely").extents[0].node
    tb.node(victim).fail()
    mon.declare_dead(victim)
    assert drain(tb, mon, repl, [victim])
    assert repl.failed_repairs == [("/lonely", 0, "no live replica")]


# ------------------------------------------- crashed-node writes time out
def test_write_to_dead_primary_fails_in_bounded_time():
    tb, _, _ = storm_testbed(protocol="rpc")
    cl = DfsClient(tb, client_index=0)
    data = np.zeros(2048, dtype=np.uint8)
    cl.create("/x", size=4096, replication=ReplicationSpec(k=3))
    tb.node(tb.metadata.lookup("/x").primary.node).fail()
    t0 = tb.sim.now
    out = cl.write_sync("/x", data, protocol="rpc")
    assert not out.ok
    assert any(n.get("reason") == "timeout" for n in out.nacks)
    # capped exponential backoff bounds the stall: 30+60+120+120 us + slack
    assert tb.sim.now - t0 < 500_000.0


# -------------------------------------------------- leaf placement by role
def test_leafspine_places_by_role_not_name():
    tb = build_testbed(n_storage=2, n_clients=1, topology="leafspine")
    fabric = tb.net.fabric
    assert fabric.leaf_of["sn0"] == "leaf1"
    assert fabric.leaf_of["client0"] == "leaf0"
    # a storage node with a name the old "sn" prefix match would miss
    weird = StorageNode(tb.sim, tb.net, "backup-7", tb.params)
    assert fabric.leaf_of["backup-7"] == "leaf1"
    # the metadata node reuses StorageNode machinery -> storage leaf
    from repro.dfs.control_rpc import install_control_plane

    install_control_plane(tb)
    assert fabric.leaf_of["mds"] == "leaf1"
