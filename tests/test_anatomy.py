"""Latency anatomy: phase decomposition and critical-path extraction."""

import numpy as np
import pytest

import repro.telemetry.anatomy as anatomy
from repro.dfs.client import DfsClient
from repro.dfs.cluster import build_testbed
from repro.dfs.layout import EcSpec, ReplicationSpec
from repro.experiments.common import installer_for
from repro.telemetry import (
    PHASES,
    PRIORITY,
    SUM_TOLERANCE_NS,
    AnatomyError,
    Telemetry,
    critical_path,
    decompose,
    decompose_trace,
    phase_summary,
)

SUM_TOL = 1e-6  # float-rounding headroom, far below the 1 ns contract


# ----------------------------------------------------------- synthetic trees
def _request(tel, t0=0.0, t1=100.0, name="op"):
    root, tctx = tel.root(name, pid="requests", tid="c0", t0=t0,
                          args={"protocol": "test", "op": "write", "bytes": 1})
    root.t1 = t1
    root.args["ok"] = True
    return root, tctx


def test_phases_partition_the_window():
    tel = Telemetry(enabled=True)
    root, tctx = _request(tel, 0.0, 100.0)
    tel.span("w", pid="net", tid="l", t0=10.0, t1=30.0, trace=tctx, phase="wire")
    tel.span("h", pid="pspin:s", tid="c", t0=40.0, t1=70.0, trace=tctx, phase="hpu")
    (op,) = decompose(tel)
    assert op.phases["wire"] == pytest.approx(20.0)
    assert op.phases["hpu"] == pytest.approx(30.0)
    assert op.phases["other"] == pytest.approx(50.0)  # uncovered gaps
    assert op.sum_ns == pytest.approx(op.end_to_end_ns, abs=SUM_TOL)


def test_overlap_goes_to_higher_priority_phase():
    # hpu outranks dma: a DMA flushing under a running handler only
    # claims the non-overlapped tail that actually gates the ack
    tel = Telemetry(enabled=True)
    _, tctx = _request(tel, 0.0, 100.0)
    tel.span("h", pid="p", tid="c", t0=10.0, t1=50.0, trace=tctx, phase="hpu")
    tel.span("d", pid="h", tid="p", t0=30.0, t1=80.0, trace=tctx, phase="dma")
    (op,) = decompose(tel)
    assert op.phases["hpu"] == pytest.approx(40.0)
    assert op.phases["dma"] == pytest.approx(30.0)  # only [50, 80)
    assert op.sum_ns == pytest.approx(op.end_to_end_ns, abs=SUM_TOL)


def test_retransmit_claims_only_idle_time():
    # backoff windows overlap live work; retransmit sits at the bottom
    # of the priority order so it counts only otherwise-idle stall
    tel = Telemetry(enabled=True)
    _, tctx = _request(tel, 0.0, 100.0)
    tel.span("rto", pid="net", tid="n", t0=0.0, t1=100.0, trace=tctx,
             phase="retransmit")
    tel.span("w", pid="net", tid="l", t0=20.0, t1=40.0, trace=tctx, phase="wire")
    (op,) = decompose(tel)
    assert op.phases["wire"] == pytest.approx(20.0)
    assert op.phases["retransmit"] == pytest.approx(80.0)
    assert op.phases["other"] == 0.0
    assert op.sum_ns == pytest.approx(op.end_to_end_ns, abs=SUM_TOL)


def test_children_clipped_to_request_window():
    tel = Telemetry(enabled=True)
    _, tctx = _request(tel, 50.0, 100.0)
    # starts before the window, ends inside
    tel.span("w", pid="net", tid="l", t0=0.0, t1=60.0, trace=tctx, phase="wire")
    # entirely after the window (trailing ack chatter)
    tel.span("a", pid="net", tid="l", t0=150.0, t1=160.0, trace=tctx, phase="ack")
    (op,) = decompose(tel)
    assert op.phases["wire"] == pytest.approx(10.0)
    assert op.phases["ack"] == 0.0
    assert op.sum_ns == pytest.approx(op.end_to_end_ns, abs=SUM_TOL)


@pytest.mark.parametrize("overrun", [2 * SUM_TOLERANCE_NS, 50.0])
def test_phase_overrunning_the_window_is_a_decomposition_error(overrun, monkeypatch):
    """Phase time beyond the request window (a mis-clipped or
    double-counted span) fails the decomposition itself, naming the
    trace and the defect, so no consumer can summarize it unchecked."""
    tel = Telemetry(enabled=True)
    root, tctx = _request(tel, 0.0, 100.0)
    # the phase covers the whole window and runs past its end, so the
    # overrun cannot hide in `other`
    tel.span("w", pid="net", tid="l", t0=0.0, t1=100.0 + overrun, trace=tctx,
             phase="wire")
    unclipped = [(s.t0, s.t1, PRIORITY.index(s.phase))
                 for s in tel.spans if s.phase is not None]
    monkeypatch.setattr(anatomy, "_phase_intervals", lambda r, kids: unclipped)
    with pytest.raises(AnatomyError,
                       match=rf"trace {root.trace_id}\b.* {overrun:.3f} ns over"):
        decompose(tel)


def test_overrun_cannot_hide_in_other(monkeypatch):
    """An unclipped interval past the window's end, in a window with idle
    time before it: the swept total (``other`` included) exceeds the
    end-to-end latency, though the named phases alone do not."""
    tel = Telemetry(enabled=True)
    root, _ = _request(tel, 0.0, 100.0)
    monkeypatch.setattr(anatomy, "_phase_intervals",
                        lambda r, kids: [(90.0, 102.0, PRIORITY.index("wire"))])
    with pytest.raises(AnatomyError,
                       match=rf"trace {root.trace_id}\b.* 2\.000 ns over"):
        decompose(tel)


def test_overrun_within_tolerance_is_float_rounding(monkeypatch):
    tel = Telemetry(enabled=True)
    _, tctx = _request(tel, 0.0, 100.0)
    monkeypatch.setattr(anatomy, "_phase_intervals",
                        lambda r, kids: [(0.0, 100.0 + SUM_TOLERANCE_NS / 2, 0)])
    (op,) = decompose(tel)
    assert op.phases["other"] == 0.0
    assert abs(op.sum_error_ns) <= SUM_TOLERANCE_NS


def test_load_run_phase_summary_is_checked(monkeypatch):
    """A load run summarizes its phases through the decomposition, so a
    defective request fails the run instead of reaching its report."""
    from repro.workloads import LoadSpec, closed_loop_write_load

    monkeypatch.setattr(anatomy, "_phase_intervals",
                        lambda root, kids: [(root.t0, root.t1 + 10.0, 0)])
    tb = build_testbed(n_storage=2, n_clients=1, telemetry=True)
    spec = LoadSpec(n_clients=1, warmup_ns=0.0, measure_ns=20_000.0)
    with pytest.raises(AnatomyError, match="10.000 ns over"):
        closed_loop_write_load(tb, 4096, "raw", spec)


def test_unfinished_and_untagged_children_are_ignored():
    tel = Telemetry(enabled=True)
    root, tctx = _request(tel, 0.0, 100.0)
    tel.begin("open", pid="p", tid="t", t0=10.0, trace=tctx, phase="wire")
    tel.span("untagged", pid="p", tid="t", t0=10.0, t1=90.0, trace=tctx)
    (op,) = decompose(tel)
    assert op.phases["wire"] == 0.0
    assert op.phases["other"] == pytest.approx(100.0)


def test_decompose_orders_and_filters_roots():
    tel = Telemetry(enabled=True)
    _request(tel, 200.0, 300.0, name="late")
    _request(tel, 0.0, 100.0, name="early")
    open_root, _ = tel.root("open", pid="requests", tid="c0", t0=50.0)
    ops = decompose(tel)
    assert [op.name for op in ops] == ["early", "late"]  # start order
    assert all(op.t1 is not None for op in ops)


def test_taxonomy_is_consistent():
    assert set(PRIORITY) == set(PHASES) - {"other"}
    assert len(set(PHASES)) == len(PHASES)


def test_phase_summary_shape():
    tel = Telemetry(enabled=True)
    for i in range(4):
        _, tctx = _request(tel, i * 100.0, i * 100.0 + 50.0)
        tel.span("w", pid="net", tid="l", t0=i * 100.0 + 5.0,
                 t1=i * 100.0 + 15.0, trace=tctx, phase="wire")
    stats = phase_summary(decompose(tel))
    assert set(stats) == set(PHASES) | {"end_to_end"}
    assert stats["wire"]["p50"] == pytest.approx(10.0)
    assert stats["end_to_end"]["n"] == 4


# ------------------------------------------------------------ critical path
def test_critical_path_tiles_window_with_waits():
    tel = Telemetry(enabled=True)
    root, tctx = _request(tel, 0.0, 100.0)
    tel.span("a", pid="p", tid="t", t0=10.0, t1=40.0, trace=tctx, phase="wire")
    tel.span("b", pid="p", tid="t", t0=60.0, t1=90.0, trace=tctx, phase="hpu")
    steps = critical_path(tel, root.trace_id)
    assert [s.name for s in steps] == ["wait", "a", "wait", "b", "wait"]
    assert steps[0].t0 == 0.0 and steps[-1].t1 == 100.0
    for prev, nxt in zip(steps, steps[1:]):
        assert prev.t1 == nxt.t0  # exact tiling, no overlap, no gap
    assert sum(s.duration_ns for s in steps) == pytest.approx(100.0)


def test_critical_path_prefers_last_finisher():
    tel = Telemetry(enabled=True)
    root, tctx = _request(tel, 0.0, 100.0)
    tel.span("short", pid="p", tid="t", t0=0.0, t1=50.0, trace=tctx, phase="wire")
    tel.span("long", pid="p", tid="t", t0=0.0, t1=95.0, trace=tctx, phase="hpu")
    steps = critical_path(tel, root.trace_id)
    names = [s.name for s in steps]
    assert "long" in names and "short" not in names  # overlapped fully


def test_critical_path_unknown_trace_raises():
    tel = Telemetry(enabled=True)
    with pytest.raises(KeyError):
        critical_path(tel, 12345)


# ------------------------------------------------- real traced simulations
PROTOCOL_CASES = [
    ("raw", {}),
    ("spin", {"replication": ReplicationSpec(k=3)}),
    ("rpc", {}),
    ("rpc+rdma", {}),
    ("cpu", {"replication": ReplicationSpec(k=3)}),
    ("rdma-flat", {"replication": ReplicationSpec(k=3)}),
    ("rdma-hyperloop", {"replication": ReplicationSpec(k=3)}),
    ("inec", {"ec": EcSpec(k=3, m=2)}),
]


@pytest.mark.parametrize("protocol,create_kw", PROTOCOL_CASES,
                         ids=[p for p, _ in PROTOCOL_CASES])
def test_decomposition_exact_for_every_protocol(protocol, create_kw):
    """Every write protocol's phases sum to its end-to-end latency."""
    tb = build_testbed(n_storage=6, telemetry=True)
    installer = installer_for(protocol)
    if installer is not None:
        installer(tb)
    c = DfsClient(tb)
    size = 64 * 1024
    c.create("/f", size=size * 2, **create_kw)
    data = np.random.default_rng(3).integers(0, 256, size, dtype=np.uint8)
    kw = {"chunk_bytes": 32 * 1024} if protocol in ("cpu", "rdma-hyperloop") else {}
    out = c.write_sync("/f", data, protocol=protocol, **kw)
    assert out.ok, (protocol, out.nacks)
    tb.run(until=tb.sim.now + 200_000)

    ops = [op for op in decompose(tb.telemetry) if op.op == "write" and op.ok]
    assert ops, protocol
    for op in ops:
        assert abs(op.sum_error_ns) <= SUM_TOL, (protocol, op.sum_error_ns)
        assert op.phases["wire"] > 0.0, protocol  # data crossed the fabric
        assert op.phases["retransmit"] == 0.0, protocol  # clean run
        steps = critical_path(tb.telemetry, op.trace_id)
        assert sum(s.duration_ns for s in steps) == pytest.approx(
            op.end_to_end_ns, abs=SUM_TOL
        )


def test_spin_write_decomposes_into_expected_phases():
    tb = build_testbed(n_storage=3, telemetry=True)
    installer_for("spin")(tb)
    c = DfsClient(tb)
    c.create("/f", size=1 << 20)
    data = np.ones(64 * 1024, dtype=np.uint8)
    assert c.write_sync("/f", data, protocol="spin").ok
    tb.run(until=tb.sim.now + 200_000)
    (op,) = [o for o in decompose(tb.telemetry) if o.op == "write"]
    # a sPIN write must show client submit, wire serialization, handler
    # execution, and a durability commit
    for phase in ("submit", "wire", "hpu", "dma"):
        assert op.phases[phase] > 0.0, phase
    assert op.phases["cpu"] == 0.0  # no host CPU on the sPIN data path
