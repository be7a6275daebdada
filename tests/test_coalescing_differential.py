"""Differential tests for the packet-train coalescing fast path.

Coalescing is a pure performance optimisation: operation outcomes,
completion times, the final clock, hardware counters and the wire
schedule (each packet's tx-done instant on each port) must be
byte-identical between the fast path (``sim.coalescing=True``, the
default) and the forced per-packet path (``coalescing=False``).

Packet trains form only with telemetry off and no fault injector
armed, so a traced run always takes the per-packet reference path,
which writes each record at its own instant.  Hence:

* telemetry **off** — trains, the lazy single-wake train driver and the
  closed-form PCIe scheduler run; outcomes, the final clock, hardware
  counters and the wire schedule must not move;
* telemetry **on** — no train forms (checked by spies), and the traced
  reference run must agree with the untraced coalesced one on outcomes,
  the final clock and hardware counters: telemetry never perturbs
  simulated time.

A third group covers the coalescing x faults contract: an armed
:class:`~repro.faults.FaultInjector` must prevent train formation
entirely (trains bypass per-packet fault checks, so forming one would
skip the injector), while results stay identical with the NIC's
retransmission layer doing the repairs.
"""

from __future__ import annotations

import ast
import inspect
from collections import Counter, defaultdict

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
from repro.pspin import accelerator as accel_mod
from repro.rdma import nic as nic_mod
from repro.simnet import link as link_mod
from repro.simnet import network as network_mod
from repro.simnet.link import Port
from repro.simnet.packet import PacketTrain

from .test_short_train_path import _spin_writes

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
    """The traced reference run and the untraced coalesced run agree on
    outcomes, the final clock and hardware counters."""
    r_on, tb_on = _run_spin_scenario(name, False, True, **kw)
    rf, tbf = _run_spin_scenario(name, True, False, **kw)
    assert r_on == rf
    assert _hw_sig(tb_on) == _hw_sig(tbf)


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
    """Fast vs forced per-packet with telemetry off, and the traced
    reference run: identical completion times and hardware counters on
    every write protocol, with and without seeded faults."""
    rf, tbf = _run_protocol(protocol, True, False, faults)
    rs, tbs = _run_protocol(protocol, False, False, faults)
    assert rf == rs
    assert _hw_sig(tbf) == _hw_sig(tbs)
    # telemetry must never perturb simulated time
    r_on, tb_on = _run_protocol(protocol, False, True, faults)
    assert r_on == rf
    assert _hw_sig(tb_on) == _hw_sig(tbf)


# ------------------------------------------------------- wire schedule

def _wire_schedule(monkeypatch, run):
    """Return ``run()``'s result and, per port, the multiset of
    ``(message, seq, tx-done instant)`` of every packet it serialized,
    taken where a serialization can end: ``_tx_done`` and a train's lazy
    statistics, which an aborted train's in-service packet reaches at
    its own tx-done (checked to be the instant noted for it)."""
    sched = defaultdict(Counter)

    def note(port, pkt, t):
        sched[port.owner_name][(pkt.msg_id, pkt.seq, t)] += 1

    tx_done = Port._tx_done
    apply_stats = Port._apply_train_stats
    cur_done = Port._train_cur_done

    def spy_tx_done(self, ser):
        note(self, self._cur_pkt, self.sim.now)
        tx_done(self, ser)

    def spy_apply_stats(self, st, upto):
        for i in range(st.applied, upto):
            note(self, st.pkts[i], st.done[i])
        apply_stats(self, st, upto)

    def spy_cur_done(self, arg):
        st, c = arg
        assert self.sim.now == st.done[c]
        cur_done(self, arg)

    with monkeypatch.context() as m:
        m.setattr(Port, "_tx_done", spy_tx_done)
        m.setattr(Port, "_apply_train_stats", spy_apply_stats)
        m.setattr(Port, "_train_cur_done", spy_cur_done)
        result = run()
    return result, dict(sched)


def _simultaneous_writes(size, coalescing):
    """``size``-byte sPIN writes from ``client0`` and ``client1`` to
    ``sn0``, both issued at t=0: their trains meet at one switch egress."""
    tb = build_testbed(n_storage=2, n_clients=2, params=SimParams(coalescing=coalescing))
    install_spin_targets(tb)
    clients = [DfsClient(tb, client_index=i, principal=f"c{i}") for i in range(2)]
    for i, c in enumerate(clients):
        tb.metadata.create(f"/f{i}", size=size, pin_nodes=["sn0"])
        c.open(f"/f{i}")
    evs = [c.write(f"/f{i}", _data(size, i), protocol="spin") for i, c in enumerate(clients)]
    tb.run(until=5_000_000)
    return [(e.value.ok, e.value.latency_ns) for e in evs], tb.sim.now


#: case -> run(coalescing) -> comparable result, all with telemetry off
WIRE_CASES = {
    **{p: lambda co, p=p: _run_protocol(p, co, False, None)[0] for p in PROTO},
    **{f"{n}{'-' + '-'.join(k) if k else ''}":
       lambda co, n=n, k=k: _run_spin_scenario(n, co, False, **k)[0]
       for n, k in TELOFF_CASES if "faults" not in k},
    **{f"writes-{kib}k": lambda co, kib=kib: _spin_writes(kib * KiB, co)
       for kib in (2, 4, 8, 10, 12, 16, 32, 64)},
    **{f"simultaneous-{kib}k": lambda co, kib=kib: _simultaneous_writes(kib * KiB, co)
       for kib in (8, 10, 12, 16)},
}


@pytest.mark.parametrize("case", list(WIRE_CASES))
def test_wire_schedule_differential(monkeypatch, case):
    """Every packet leaves every port at the same instant, coalesced or
    not.  ``inec`` needs a train handed on at its first tx-done, as a
    packet is; the ``simultaneous`` cases need a switch train that a
    competitor will cut to be cut before the competitor's packets are
    scheduled."""
    run = WIRE_CASES[case]
    rf, wf = _wire_schedule(monkeypatch, lambda: run(True))
    rs, ws = _wire_schedule(monkeypatch, lambda: run(False))
    assert rf == rs
    assert wf == ws


# ------------------------------------------------- coalescing x faults

FAULT_SWEEP = [
    dict(seed=11, loss_prob=0.06, retransmit=True),
    dict(seed=12, corrupt_prob=0.06, retransmit=True),
    dict(seed=13, loss_prob=0.04, corrupt_prob=0.04, retransmit=True),
]


def _counting_trains(monkeypatch):
    """Count the wire trains (``PacketTrain``) and the paced accelerator
    trains (``_AccelTrain``) built from now on."""
    formed = {"wire": 0, "accel": 0}
    for key, cls in (("wire", PacketTrain), ("accel", accel_mod._AccelTrain)):

        def counting(self, *a, _init=cls.__init__, _key=key, **kw):
            formed[_key] += 1
            _init(self, *a, **kw)

        monkeypatch.setattr(cls, "__init__", counting)
    return formed


def test_trains_form_on_clean_network(monkeypatch):
    formed = _counting_trains(monkeypatch)
    _run_spin_scenario("auth", True, False)
    assert formed["wire"] > 0
    assert formed["accel"] > 0


TRACED_RUNS = {
    **{f"{n}{'-' + '-'.join(k) if k else ''}": (_run_spin_scenario, (n, True, True), k)
       for n, k in TEL_CASES},
    **{f"{p}-{fid}": (_run_protocol, (p, True, True, f), {})
       for p in PROTO for fid, f in (("clean", None), ("faulty", LOSS))},
}


@pytest.mark.parametrize("case", list(TRACED_RUNS))
def test_no_train_forms_under_telemetry(monkeypatch, case):
    """Traced runs take the per-packet reference path even with
    coalescing on: neither a wire train nor an accelerator train forms."""
    formed = _counting_trains(monkeypatch)
    run, args, kw = TRACED_RUNS[case]
    run(*args, **kw)
    assert formed == {"wire": 0, "accel": 0}


#: module -> class -> which of its methods run only on a train
TRAIN_ONLY = {
    link_mod: {"Port": lambda n: n in ("try_send_train", "_apply_train_stats")
                                 or n.startswith("_train_")},
    network_mod: {"Switch": lambda n: n == "forward_train"},
    nic_mod: {"RdmaNic": lambda n: n in ("receive_train", "_dispatch_train",
                                         "_rx_train_step")},
    accel_mod: {
        "PsPinAccelerator": lambda n: n == "ingest_train" or n.startswith("_train_"),
        "_PacketRecord": lambda n: n.startswith(("copy_", "hpu_")),
    },
}


def _refusal_tests(fn):
    """Ids of the nodes in the tests of ``if ...: return None/False``
    (the one place a train path may look at telemetry: to refuse)."""
    ids = set()
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.If)
            and len(node.body) == 1
            and isinstance(node.body[0], ast.Return)
            and isinstance(node.body[0].value, (ast.Constant, type(None)))
            and getattr(node.body[0].value, "value", None) in (None, False)
        ):
            ids.update(id(n) for n in ast.walk(node.test))
    return ids


def test_train_paths_never_read_telemetry():
    """Trains form only with telemetry off, so no train-only function
    may write a record: a replay of what the per-packet path records
    must not creep back.  Only a refusal may test telemetry."""
    checked, readers = [], []
    for mod, classes in TRAIN_ONLY.items():
        for cls in ast.parse(inspect.getsource(mod)).body:
            if not isinstance(cls, ast.ClassDef) or cls.name not in classes:
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or not classes[cls.name](fn.name):
                    continue
                checked.append(f"{cls.name}.{fn.name}")
                allowed = _refusal_tests(fn)
                if any(
                    id(n) not in allowed
                    and (isinstance(n, ast.Attribute) and n.attr == "telemetry"
                         or isinstance(n, ast.Constant) and n.value == "telemetry")
                    for n in ast.walk(fn)
                ):
                    readers.append(checked[-1])
    for name in ("Port.try_send_train", "Port._train_abort", "Port._apply_train_stats",
                 "Switch.forward_train", "RdmaNic._dispatch_train",
                 "PsPinAccelerator.ingest_train", "PsPinAccelerator._train_catchup",
                 "_PacketRecord.copy_start", "_PacketRecord.hpu_active"):
        assert name in checked, f"{name} not found: update TRAIN_ONLY"
    assert readers == []


@pytest.mark.parametrize("backend,paced", [("nvmm", True), ("nvme", False)])
def test_only_timeless_dma_paces_trains(monkeypatch, backend, paced):
    """A 64 KiB write forms wire trains on either backend, but only one
    whose DMA completion is timeless (NVMM) paces an accelerator train:
    NVMe completions read the clock, so its packets go one by one."""
    formed = _counting_trains(monkeypatch)
    _run_spin_scenario("auth", True, False, backend=backend)
    assert formed["wire"] > 0
    assert (formed["accel"] > 0) == paced


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
    assert formed["wire"] == 0
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
    assert formed["wire"] == 0
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


def _teardown_run(coalescing, small, pspin):
    """A 16 KiB sPIN write to ``sn0``, optionally followed by a small
    write from a second client that tears the paced train down."""
    params = SimParams(coalescing=coalescing)
    if pspin:
        params = params.with_pspin(**pspin)
    tb = build_testbed(n_storage=2, n_clients=2, params=params)
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
    return outcome, stats, _hw_sig(tb)


# Trains form only with telemetry off, hence the ``teloff`` in each id.
@pytest.mark.parametrize(
    "branch,small,pspin", TEARDOWN_CASES,
    ids=[f"{'lead' if b[0] else 'later'}-s{b[1]}-{'built' if b[2] else 'unbuilt'}-teloff"
         for b, _s, _p in TEARDOWN_CASES],
)
def test_teardown_branch_matches_slow_path(monkeypatch, branch, small, pspin):
    from repro.pspin.accelerator import PsPinAccelerator

    seen = set()
    orig = PsPinAccelerator._train_materialize

    def spy(self, at):
        for j in range(len(at.pkts)):
            if j == 0 or j < at.wire.cut:
                seen.add((j == 0, at.stage[j], at.built))
        return orig(self, at)

    monkeypatch.setattr(PsPinAccelerator, "_train_materialize", spy)
    fast = _teardown_run(True, small, pspin)
    assert branch in seen, f"branch {branch} not materialized: {sorted(seen)}"
    assert all(ok for ok, _lat in fast[0])
    assert fast == _teardown_run(False, small, pspin)
