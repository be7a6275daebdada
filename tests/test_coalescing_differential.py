"""Differential tests for the packet-train coalescing fast path.

Coalescing is a pure performance optimisation: every observable —
operation outcomes, completion times, telemetry spans, metric counters,
gauge trajectories, histograms, and hardware counters — must be
byte-identical between the fast path (``sim.coalescing=True``, the
default) and the forced slow path (``coalescing=False``).

Two passes are required because they exercise *different* fast paths:

* telemetry **on** — trains still form on the wire, but the accelerator
  commits handlers eagerly (per distinct timestamp) and PCIe runs its
  full callback chain, so spans/metrics must line up sample for sample;
* telemetry **off** — the lazy single-wake train driver and the
  closed-form PCIe scheduler take over; only outcomes, the final clock,
  and hardware counters remain observable, and they must not move.

A third group covers the coalescing x faults contract: an armed
:class:`~repro.faults.FaultInjector` must prevent train formation
entirely (trains bypass per-packet fault checks, so forming one would
skip the injector), while results stay identical with the PR 2
retransmission layer doing the repairs.
"""

from __future__ import annotations

import numpy as np
import pytest

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
from repro.simnet.link import Port

KiB = 1024


def _data(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8)


def _build(coalescing, telemetry, topology="star", backend="nvmm", faults=None,
           n_storage=6):
    params = SimParams(coalescing=coalescing)
    if faults:
        params = params.with_faults(**faults)
    return build_testbed(
        n_storage=n_storage, params=params, topology=topology,
        storage_backend=backend, telemetry=telemetry,
    )


def _tel_sig(tb):
    """Full telemetry signature: spans, counters, gauge internals, hists."""
    tel = tb.sim.telemetry
    spans = sorted((s.name, s.cat, s.pid, s.tid, s.t0, s.t1) for s in tel.spans)
    m = tel.metrics
    counters = {n: c.value for n, c in m.counters.items()}
    gauges = {n: (len(g.times), g.last, g.max, g._area, g._last_t)
              for n, g in m.gauges.items()}
    hists = {n: sorted(h.values) for n, h in m.histograms.items()}
    return spans, counters, gauges, hists


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


# ---------------------------------------------------------------- scenarios

LOSS = dict(seed=42, loss_prob=0.05, corrupt_prob=0.03, retransmit=True)


def _run_spin_scenario(name, coalescing, telemetry, topology="star",
                       backend="nvmm", faults=None):
    tb = _build(coalescing, telemetry, topology=topology, backend=backend,
                faults=faults)
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


TEL_CASES = [
    ("auth", {}),
    ("rep", {}),
    ("ec", {}),
    ("multi", {}),
    ("auth", {"topology": "leafspine"}),
    ("auth", {"faults": LOSS}),
    ("rep", {"faults": dict(seed=7, loss_prob=0.08, retransmit=True)}),
]


@pytest.mark.parametrize(
    "name,kw", TEL_CASES,
    ids=[f"{n}{'-' + '-'.join(k) if k else ''}" for n, k in TEL_CASES],
)
def test_telemetry_differential(name, kw):
    rf, tbf = _run_spin_scenario(name, True, True, **kw)
    rs, tbs = _run_spin_scenario(name, False, True, **kw)
    assert rf == rs
    sf, ss = _tel_sig(tbf), _tel_sig(tbs)
    assert sf[0] == ss[0], "span multisets differ"
    assert sf[1] == ss[1], "counters differ"
    assert sf[2] == ss[2], "gauge trajectories differ"
    assert sf[3] == ss[3], "histograms differ"


TELOFF_CASES = [
    ("auth", {}),
    ("rep", {}),
    ("ec", {}),
    ("multi", {}),
    ("auth", {"backend": "nvme"}),
    ("auth", {"topology": "leafspine"}),
    ("auth", {"faults": LOSS}),
    ("ec", {"faults": dict(seed=3, corrupt_prob=0.05, retransmit=True)}),
]


@pytest.mark.parametrize(
    "name,kw", TELOFF_CASES,
    ids=[f"{n}{'-' + '-'.join(k) if k else ''}" for n, k in TELOFF_CASES],
)
def test_teloff_differential(name, kw):
    """With telemetry off the lazy commit + closed-form PCIe paths run;
    outcomes, the final clock, and hardware counters must be identical."""
    rf, tbf = _run_spin_scenario(name, True, False, **kw)
    rs, tbs = _run_spin_scenario(name, False, False, **kw)
    assert rf == rs
    assert _hw_sig(tbf) == _hw_sig(tbs)
    if name == "auth" and not kw:
        # single-target 64 KiB: long trains form, so the lazy train/PCIe
        # paths must engage and dispatch measurably fewer kernel events
        # (EC/replication scenarios fan out and may break even).
        assert tbf.sim.events_dispatched < 0.7 * tbs.sim.events_dispatched


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


def _run_protocol(protocol, coalescing, telemetry, faults):
    installer, create_kw, write_kw = PROTO[protocol]
    tb = _build(coalescing, telemetry, faults=faults)
    if installer is not None:
        installer(tb)
    c = DfsClient(tb)
    size = 96 * KiB if protocol == "inec" else 64 * KiB
    c.create("/f", size=size, **create_kw)
    out = c.write_sync("/f", _data(size), protocol=protocol, **write_kw)
    return (out.ok, out.latency_ns, tb.sim.now), tb


@pytest.mark.parametrize("faults", [None, LOSS], ids=["clean", "faulty"])
@pytest.mark.parametrize("protocol", list(PROTO))
def test_every_protocol_differential(protocol, faults):
    """Fast vs forced-slow: identical completion times and telemetry on
    every write protocol, with and without seeded faults (tentpole
    acceptance)."""
    rf_on, tbf_on = _run_protocol(protocol, True, True, faults)
    rs_on, tbs_on = _run_protocol(protocol, False, True, faults)
    assert rf_on == rs_on
    assert _tel_sig(tbf_on) == _tel_sig(tbs_on)
    rf_off, tbf_off = _run_protocol(protocol, True, False, faults)
    rs_off, tbs_off = _run_protocol(protocol, False, False, faults)
    assert rf_off == rs_off
    assert _hw_sig(tbf_off) == _hw_sig(tbs_off)
    # telemetry must never perturb simulated time
    assert rf_on[2] == rf_off[2]


# ------------------------------------------------- coalescing x faults

FAULT_SWEEP = [
    dict(seed=11, loss_prob=0.06, retransmit=True),
    dict(seed=12, corrupt_prob=0.06, retransmit=True),
    dict(seed=13, loss_prob=0.04, corrupt_prob=0.04, retransmit=True),
]


def _counting_trains(monkeypatch):
    formed = [0]
    orig = Port.try_send_train

    def counting(self, *a, **kw):
        st = orig(self, *a, **kw)
        if st is not None:
            formed[0] += 1
        return st

    monkeypatch.setattr(Port, "try_send_train", counting)
    return formed


def test_trains_form_on_clean_network(monkeypatch):
    formed = _counting_trains(monkeypatch)
    _run_spin_scenario("auth", True, False)
    assert formed[0] > 0


@pytest.mark.parametrize("faults", FAULT_SWEEP,
                         ids=["loss", "corrupt", "loss+corrupt"])
def test_trains_never_skip_armed_injector(monkeypatch, faults):
    """With any armed injector, zero trains may form (a train would
    bypass the per-packet egress verdicts) — and the retransmission
    layer must still converge to identical results either way."""
    formed = _counting_trains(monkeypatch)
    rf, tbf = _run_spin_scenario("rep", True, False, faults=faults)
    assert tbf.faults is not None
    assert tbf.faults.drops + tbf.faults.corrupted > 0, "injector never struck"
    assert formed[0] == 0
    rs, _ = _run_spin_scenario("rep", False, False, faults=faults)
    assert rf == rs


def test_trains_never_skip_link_down_window(monkeypatch):
    """A scheduled link outage also arms the injector: no trains, and
    the write still completes via retransmission after the window."""
    from repro.faults import DownWindow

    faults = dict(
        seed=5,
        link_down=(DownWindow(target="switch->sn0", t0_ns=0.0, t1_ns=30_000.0),),
        retransmit=True,
    )
    formed = _counting_trains(monkeypatch)
    rf, tbf = _run_spin_scenario("auth", True, False, faults=faults)
    assert tbf.faults is not None
    assert formed[0] == 0
    assert rf[0][0] is True  # the write succeeded despite the outage
    rs, _ = _run_spin_scenario("auth", False, False, faults=faults)
    assert rf == rs


@pytest.mark.parametrize("delay_ns", [390, 420, 435, 450, 480])
def test_teardown_after_completion_commit_still_acks(delay_ns):
    """A competing write landing just after a paced train's completion
    handler committed (the short tail packet finishes before full-MTU
    packets) tears the train down with stage[last] already final.  The
    reparented completion tail must still run — for a ~60 ns window of
    ``delay_ns`` the first write used to hang forever, reaped by the
    cleanup sweeper without ever acking the client."""
    tb = build_testbed(n_storage=2, n_clients=2)
    install_spin_targets(tb)
    a = DfsClient(tb, client_index=0, principal="a")
    b = DfsClient(tb, client_index=1, principal="b")
    tb.metadata.create("/big", size=16384, pin_nodes=["sn0"])
    tb.metadata.create("/small", size=2048, pin_nodes=["sn0"])
    a.open("/big")
    b.open("/small")
    big = _data(16384)
    small = _data(2048, seed=1)
    evs = []

    def go():
        evs.append(a.write("/big", big, protocol="spin"))
        yield tb.sim.timeout(float(delay_ns))
        evs.append(b.write("/small", small, protocol="spin"))

    tb.sim.process(go())
    tb.run(until=5_000_000)
    assert all(e.triggered for e in evs), "a write never completed"
    assert all(e.value.ok for e in evs)


# ------------------------------------------- train teardown branches
#
# A torn-down accelerator train hands each packet back to the per-packet
# pipeline at the stage it nominally reached (``_train_materialize``).
# Each case below pins one (lead?, stage, built) branch, proven to run by
# a spy, and checks that the outcome and handler statistics match the
# forced slow path.  Stages: 0 not yet ingested, 1 in F1, 2 in the L1
# copy, 3 past the L1 copy, 5 computing, 6 committed.  Stage 4 (the
# completion gate, rank 3) is set only on the completion packet, and a
# train's lead packet is never one (``ingest_train`` requires a header
# that is not also the completion), so no lead packet reaches stage 4.
# ``hpus_per_cluster=1`` makes the build-time HPU sweep fail, so the
# driver tears the train down at the header handler's end: the lead is
# then past its hand-off and later packets are still arriving.

TEARDOWN_CASES = [
    # (lead, stage, built), competing write (bytes, delay ns), pspin params
    ((True, 3, False), None, {"hpus_per_cluster": 1}),
    ((False, 0, False), None, {"hpus_per_cluster": 1}),
    ((False, 1, False), (16, 260.0), {}),
    ((False, 1, True), (16, 340.0), {}),
    ((False, 2, True), (16, 340.0), {}),
    ((False, 3, True), (16, 410.5), {}),
]


def _teardown_run(coalescing, small, pspin, telemetry):
    """A 16 KiB sPIN write to ``sn0``, optionally followed by a small
    write from a second client that tears the paced train down."""
    params = SimParams(coalescing=coalescing)
    if pspin:
        params = params.with_pspin(**pspin)
    tb = build_testbed(n_storage=2, n_clients=2, params=params, telemetry=telemetry)
    install_spin_targets(tb)
    a = DfsClient(tb, client_index=0, principal="a")
    b = DfsClient(tb, client_index=1, principal="b")
    tb.metadata.create("/big", size=16384, pin_nodes=["sn0"])
    a.open("/big")
    if small is not None:
        tb.metadata.create("/small", size=small[0], pin_nodes=["sn0"])
        b.open("/small")
    evs = []

    def go():
        evs.append(a.write("/big", _data(16384), protocol="spin"))
        if small is not None:
            yield tb.sim.timeout(small[1])
            evs.append(b.write("/small", _data(small[0], seed=1), protocol="spin"))

    tb.sim.process(go())
    tb.run(until=5_000_000)
    assert all(e.triggered for e in evs), "a write never completed"
    outcome = [(e.value.ok, e.value.latency_ns) for e in evs]
    acc = tb.storage["sn0"].accelerator
    stats = {k: (v.durations_ns, v.instructions) for k, v in acc.stats.items()}
    return outcome, stats, _hw_sig(tb), _tel_sig(tb) if telemetry else None


@pytest.mark.parametrize("telemetry", [False, True], ids=["teloff", "telon"])
@pytest.mark.parametrize(
    "branch,small,pspin", TEARDOWN_CASES,
    ids=[f"{'lead' if b[0] else 'later'}-s{b[1]}-{'built' if b[2] else 'unbuilt'}"
         for b, _s, _p in TEARDOWN_CASES],
)
def test_teardown_branch_matches_slow_path(monkeypatch, branch, small, pspin, telemetry):
    from repro.pspin.accelerator import PsPinAccelerator

    seen = set()
    orig = PsPinAccelerator._train_materialize

    def spy(self, at):
        for j in range(len(at.pkts)):
            if j == 0 or j < at.wire.cut:
                seen.add((j == 0, at.stage[j], at.built))
        return orig(self, at)

    monkeypatch.setattr(PsPinAccelerator, "_train_materialize", spy)
    fast = _teardown_run(True, small, pspin, telemetry)
    assert branch in seen, f"branch {branch} not materialized: {sorted(seen)}"
    assert all(ok for ok, _lat in fast[0])
    assert fast == _teardown_run(False, small, pspin, telemetry)
