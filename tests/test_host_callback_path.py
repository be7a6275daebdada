"""The host path as heap callbacks: RPC server, RPC handlers, CPU cores,
the NIC sender and the open-loop flow generators.

Each of these was a generator process; each is now a callback chain
that takes the heap positions the process's resumes took.  The pins
below were recorded from the process-based host path, so a change that
should leave the simulation alone keeps every pin:

* every registered RPC handler run end to end, with telemetry off and
  on: the operation outcomes, the final clock, the kernel's dispatch
  count and a digest of every span and metric;
* kernel events and ``Process`` and ``Event`` constructions per
  request of the four quick scenario-matrix runs (the per-request cost,
  pinned the way ``test_simulator_fastpath`` pins events per packet).

The rest checks what the generators did implicitly: a leak in a
handler chain is reported under the chain's strand.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import Counter

import numpy as np
import pytest

from repro import DfsClient, ReplicationSpec, build_testbed
from repro.dfs.capability import Rights
from repro.dfs.control_rpc import ControlPlaneClient, install_control_plane
from repro.dfs.monitor import MonitorConfig, install_monitor
from repro.dfs.replicator import ReplicatorConfig, ReReplicator
from repro.experiments.common import installer_for
from repro.params import HostParams, SimParams
from repro.scenarios import MATRIX_NAMES, get, run_scenario
from repro.simnet import engine

KiB = 1024


def _data(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8)


def _one_core() -> SimParams:
    """One host core: the RPC server and the handlers queue for it."""
    return dataclasses.replace(SimParams(), host=HostParams(cpu_cores=1))


def _digest(tb, outcomes) -> str:
    """sha256 prefix of the outcomes, every span and every metric."""
    tel = tb.sim.telemetry
    spans = [(s.name, s.cat, s.pid, s.tid, s.t0, s.t1, s.phase) for s in tel.spans]
    metrics = tel.metrics.to_dict(tb.sim.now)
    blob = repr((outcomes, spans, metrics)).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _writes(tb, protocol, replication=None, **kw):
    """Two clients write to ``sn0`` (and its replicas) at once; a third
    write carries a read-only capability and is refused after
    validation."""
    installer_for(protocol)(tb)
    a = DfsClient(tb, client_index=0, principal="a")
    b = DfsClient(tb, client_index=1, principal="b")
    pins = [f"sn{i}" for i in range(replication.k if replication else 1)]
    jobs = []
    for i, c in enumerate((a, b)):
        path = f"/w{i}"
        tb.metadata.create(path, size=16 * KiB, pin_nodes=pins, replication=replication)
        c.open(path)
        jobs.append((c, path, _data(12 * KiB, seed=i), None))
    bad = tb.authority.issue(a.client_id, 0, 0, 1, Rights.READ)
    jobs.append((a, "/w0", _data(4 * KiB, seed=9), bad))
    evs = [c.write(path, data, protocol=protocol, capability=cap, **kw)
           for c, path, data, cap in jobs]
    tb.run(until=5_000_000)
    assert all(e.triggered for e in evs)
    return [(e.value.ok, e.value.latency_ns) for e in evs]


def _rpc_write(telemetry):
    tb = build_testbed(n_storage=2, n_clients=2, params=_one_core(), telemetry=telemetry)
    out = _writes(tb, "rpc")
    # an RPC nobody registered is answered with an error
    miss = tb.clients[0].nic.post_rpc("sn0", {"rpc": "nope"})
    tb.run(until=tb.sim.now + 1_000_000)
    return tb, (out, miss.value.ok, miss.value.t_end)


def _rpc_rdma_write(telemetry):
    tb = build_testbed(n_storage=2, n_clients=2, params=_one_core(), telemetry=telemetry)
    return tb, _writes(tb, "rpc+rdma")


def _repl(strategy):
    def case(telemetry):
        tb = build_testbed(n_storage=4, n_clients=2, params=_one_core(),
                           telemetry=telemetry)
        return tb, _writes(tb, "cpu", ReplicationSpec(k=3, strategy=strategy),
                           chunk_bytes=4 * KiB)
    return case


def _control_plane(telemetry):
    tb = build_testbed(n_storage=4, telemetry=telemetry)
    installer_for("spin")(tb)
    install_control_plane(tb)
    cp = ControlPlaneClient(tb, tb.clients[0])
    evs = [
        cp.create("/f", 64 * KiB),
        cp.create("/g", 8 * KiB, replication=ReplicationSpec(k=2)),
        cp.lookup("/f"),
        cp.lookup("/missing"),
        cp.ticket("/g", client_id=3),
        cp.create("/f", 64 * KiB),  # duplicate
        cp.report_failure("sn3"),
    ]
    tb.run(until=2_000_000)
    assert all(e.triggered for e in evs)
    return tb, [(e.value.ok, e.value.t_end, type(e.value.data).__name__) for e in evs]


def _heartbeat_repair(telemetry):
    """Heartbeats to the metadata node; ``sn2`` dies and its extents are
    re-replicated by ``md_repair`` RPCs on the surviving replicas."""
    params = SimParams().with_faults(retransmit=True, rto_ns=30_000.0,
                                     rto_max_ns=120_000.0, max_retransmits=3, seed=7)
    tb = build_testbed(n_storage=6, params=params, telemetry=telemetry)
    installer_for("spin")(tb)
    mon = install_monitor(tb, config=MonitorConfig(interval_ns=50_000.0, miss_threshold=3))
    repl = ReReplicator(tb, ReplicatorConfig(max_inflight=2), monitor=mon)
    c = DfsClient(tb)
    for i in range(3):
        c.create(f"/f{i}", size=8 * KiB, replication=ReplicationSpec(k=3))
        assert c.write_sync(f"/f{i}", _data(4 * KiB, seed=i), protocol="spin").ok
    tb.node("sn2").fail()
    tb.run(until=tb.sim.now + 600_000.0)
    assert mon.is_dead("sn2") and repl.schedule and repl.pending() == 0
    return tb, (mon.beats_received, [dataclasses.astuple(r) for r in repl.schedule])


#: case -> scenario.  The pins below hold for both telemetry settings.
CASES = {
    "rpc_write": _rpc_write,
    "rpc_rdma_write": _rpc_rdma_write,
    "repl_ring": _repl("ring"),
    "repl_pbt": _repl("pbt"),
    "control_plane": _control_plane,
    "heartbeat_repair": _heartbeat_repair,
}

#: (case, telemetry) -> (events_dispatched, final clock, digest).  The
#: clocks and digests were recorded from the process-based host path, and
#: so were the event counts less one per RPC delivered: ``on_rpc`` queues
#: a command with a ``Store`` put that makes no event, where that path's
#: put made one nobody waited on (e.g. ``rpc_write`` 151 -> 147 events:
#: three writes and one unknown RPC).
#: ``heartbeat_repair`` untraced was 1340 before its payload DMAs became
#: deferred entries (same clock and digest), then 1314 (traced 1675)
#: until ``Store.put`` stopped making a completion event: the
#: replicator's two queued repair tasks made one each, and nobody
#: waited on either.  The untraced counts were 1312 (heartbeat_repair),
#: 509 (repl_pbt), 521 (repl_ring), 122 (rpc_rdma_write) and 147
#: (rpc_write) while uncontended multi-packet messages moved as packet
#: trains (same clocks and digests).
PINS = {
    ("control_plane", False): (135, 2000000, "4b7b8512eadf277d"),
    ("control_plane", True): (156, 2000000, "17e6f4ee957bb0be"),
    ("heartbeat_repair", False): (1363, 614398.8, "3ea2f6655d9363dc"),
    ("heartbeat_repair", True): (1673, 614398.8, "4806640bd27bca7f"),
    ("repl_pbt", False): (580, 5000000, "ddea2ae735de5bd0"),
    ("repl_pbt", True): (687, 5000000, "2c9d92de137f861d"),
    ("repl_ring", False): (580, 5000000, "f69219d314750c77"),
    ("repl_ring", True): (687, 5000000, "1a082ba2e8a2b4d6"),
    ("rpc_rdma_write", False): (156, 5000000, "1e7caf5815252436"),
    ("rpc_rdma_write", True): (185, 5000000, "de52151bf3aa5270"),
    ("rpc_write", False): (149, 6000000, "86304a6e23d96d9a"),
    ("rpc_write", True): (175, 6000000, "ca386ecf0e01edea"),
}


def _pin(case, telemetry):
    tb, out = CASES[case](telemetry)
    return tb.sim.events_dispatched, tb.sim.now, _digest(tb, out)


@pytest.mark.parametrize("telemetry", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_rpc_handler_pin(case, telemetry):
    assert _pin(case, telemetry) == PINS[(case, telemetry)]


# ------------------------------------------------ per-request kernel cost
class _ProcessSpy:
    """Counts ``Process`` constructions by name, digits folded to ``#``."""

    def __init__(self, monkeypatch):
        self.names = Counter()
        orig = engine.Process.__init__
        names = self.names

        def init(proc, sim, gen, name="", at=None):
            orig(proc, sim, gen, name, at)
            names["".join("#" if ch.isdigit() else ch for ch in proc.name)] += 1

        monkeypatch.setattr(engine.Process, "__init__", init)


class _EventSpy:
    """Counts constructions of ``Event`` and its subclasses by class name
    (``Timeout`` inlines its constructor, so it is patched too)."""

    def __init__(self, monkeypatch):
        self.kinds = Counter()
        kinds = self.kinds
        for cls in (engine.Event, engine.Timeout):
            orig = cls.__init__

            def init(ev, *a, _orig=orig, **kw):
                kinds[type(ev).__name__] += 1
                _orig(ev, *a, **kw)

            monkeypatch.setattr(cls, "__init__", init)


#: quick scenario -> (issued, events_dispatched, Process constructions).
#: With the process-based host path these were hot_shard (202, 6684, 235),
#: incast (222, 6503, 234), uniform_onoff (105, 2848, 222) and
#: hot_shard_lossy (12, 719, 24): a ``<client>.tx`` sender per message,
#: a ``<node>.rpc.<name>`` handler per RPC, the ``<node>.rpcsrv`` servers
#: and the ``openloop.b<b>.<class>`` generators.  uniform_onoff's 105
#: fewer events are the ``put`` events ``on_rpc`` no longer makes.
#: hot_shard 6684 and incast 6503 events became 6232 and 6281 when
#: payload DMAs into host memory became deferred entries: each is
#: applied by the memory's next reader, and only the one a completion
#: handler waits on is dispatched (the schedule and outcome digests of
#: ``test_scenarios`` did not move).  With packet trains (and the
#: accelerator's paced-train drivers, hot_shard's 21 processes) they
#: were hot_shard 6232, incast 6281 and uniform_onoff 2743 events.
PER_REQUEST = {
    "hot_shard": (202, 8388, 0),
    "incast": (222, 6909, 0),
    "uniform_onoff": (105, 3527, 0),
    "hot_shard_lossy": (12, 719, 0),
}

#: quick scenario -> ``Event`` constructions by class, subclasses
#: included.  Before HPU slots, CPU cores and switch hops stopped building
#: events nobody waits on, these were hot_shard {AllOf 1, Event 1692,
#: Process 21, Request 898, _Flush 654}, incast {AllOf 1, Event 1820,
#: Request 888, _Flush 444}, uniform_onoff {AllOf 1, Event 656, Request
#: 420, _Flush 105} and hot_shard_lossy {AllOf 1, Event 173, Request 62,
#: _Flush 38}: a ``Request`` per handler run or core hold and a tx-done
#: ``Event`` per switch hop.  The kernel events above did not move.
#: A sPIN write's payload DMAs build one ``_Flush``, the one its
#: completion handler waits on: hot_shard had 654 and incast 444, one
#: per DMA, before DMAs into host memory became deferred entries.
#: With packet trains, a NIC's multi-packet message built one sender
#: ``Event`` for the whole train instead of a tx-done ``Event`` per
#: packet (``Port.send``): hot_shard {Event 1469, Process 21}, incast
#: {Event 1572} and uniform_onoff {Event 538}.
EVENT_KINDS = {
    "hot_shard": {"AllOf": 1, "Event": 1879, "_Flush": 202},
    "incast": {"AllOf": 1, "Event": 1789, "_Flush": 222},
    "uniform_onoff": {"AllOf": 1, "Event": 757, "_Flush": 105},
    "hot_shard_lossy": {"AllOf": 1, "Event": 123, "_Flush": 38},
}


@pytest.mark.parametrize("name", MATRIX_NAMES)
def test_quick_scenario_cost_per_request_pinned(name, monkeypatch):
    """Events, ``Process`` and ``Event`` constructions per quick run.
    Neither the host path nor the accelerator builds a process per
    request or per packet, and no run builds a ``Request``."""
    spy = _ProcessSpy(monkeypatch)
    events = _EventSpy(monkeypatch)
    timings: dict = {}
    row = run_scenario(get(name, quick=True), seed=1, timings=timings)
    assert not spy.names, dict(spy.names)
    issued = row["issued"]
    got = (issued, timings["events"], sum(spy.names.values()))
    assert got == PER_REQUEST[name], (
        f"{name}: {got[1] / issued:.2f} events/req, "
        f"{got[2] / issued:.2f} Process/req ({dict(spy.names)})"
    )
    assert dict(events.kinds) == EVENT_KINDS[name]


# -------------------------------------------------------------- simsan
def test_leak_in_a_handler_chain_is_reported_under_its_strand():
    """A handler that takes a core and never gives it back: the quiesce
    sweep names the RPC's chain, ``strand:<node>.rpc.<name>``."""
    tb = build_testbed(n_storage=1, sanitize=True)
    node = tb.node("sn0")

    def leaky(call):
        call.node.cpu.cores.request()
        call.node.respond(call.src, call.headers["greq_id"], "ok")

    node.register_rpc("leaky", leaky)
    res = tb.run_until(tb.clients[0].nic.post_rpc("sn0", {"rpc": "leaky"}))
    assert res.ok
    tb.drain()
    report = tb.sanitize_report()
    assert report.kinds() == {"leak-resource"}
    (finding,) = report.findings
    assert "sn0.cpu.cores" in finding.message
    assert "by strand:sn0.rpc.leaky" in finding.message
