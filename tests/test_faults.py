"""Fault injection end-to-end: every protocol survives seeded packet
loss, outage windows are honoured, give-up is clean, runs are
deterministic, and nothing leaks after quiesce."""

import numpy as np
import pytest

from repro.dfs.cluster import build_testbed
from repro.dfs.layout import EcSpec, ReplicationSpec
from repro.experiments.common import fresh_client
from repro.faults import DownWindow, FaultInjector, FaultParams
from repro.params import SimParams
from repro.simnet.engine import Simulator

SIZE = 64 * 1024
DATA = np.random.default_rng(0).integers(0, 256, SIZE, dtype=np.uint8)

#: seed chosen so loss=1e-3 actually drops packets during the run
SEED = 2

ALL_PROTOCOLS = [
    ("raw", {}),
    ("spin", {}),
    ("rpc", {}),
    ("rpc+rdma", {}),
    ("spin-repl", {"replication": ReplicationSpec(k=3)}),
    ("rdma-flat", {"replication": ReplicationSpec(k=3)}),
    ("cpu", {"replication": ReplicationSpec(k=3)}),
    ("rdma-hyperloop", {"replication": ReplicationSpec(k=3)}),
    ("spin-ec", {"ec": EcSpec(k=3, m=2)}),
    ("inec", {"ec": EcSpec(k=3, m=2)}),
]


def _run_write(protocol, create_kw, params, app_retries=3, telemetry=False):
    """One verified write under ``params``; returns the testbed + stats."""
    wire_protocol = protocol.replace("-repl", "").replace("-ec", "")
    tb, c = fresh_client(wire_protocol, params, n_storage=8, telemetry=telemetry)
    c.create("/f", size=SIZE, **create_kw)
    kw = {"chunk_bytes": 32 * 1024} if wire_protocol == "cpu" else {}
    out = None
    for _ in range(app_retries):
        out = c.write_sync("/f", DATA, protocol=wire_protocol, **kw)
        if out.ok:
            break
    tb.drain()
    return tb, c, out


# ------------------------------------------------ all protocols, seeded loss
@pytest.mark.parametrize("protocol,create_kw", ALL_PROTOCOLS,
                         ids=[p for p, _ in ALL_PROTOCOLS])
def test_write_completes_under_loss(protocol, create_kw):
    params = SimParams().with_faults(loss_prob=1e-3, seed=SEED, retransmit=True)
    tb, c, out = _run_write(protocol, create_kw, params)
    assert out.ok, (protocol, out.nacks)
    got = c.read_back("/f")
    assert np.array_equal(got[:SIZE], DATA), protocol
    assert tb.idle(), protocol


def test_loss_actually_recovers_via_retransmit():
    # 1% loss on every link: the run must both drop and retransmit
    params = SimParams().with_faults(loss_prob=1e-2, seed=1, retransmit=True)
    tb, c, out = _run_write("spin", {}, params)
    assert out.ok, out.nacks
    assert tb.faults.drops > 0
    nics = [tb.clients[0].nic, *(n.nic for n in tb.storage_nodes)]
    assert sum(n.retransmits for n in nics) > 0
    assert np.array_equal(c.read_back("/f")[:SIZE], DATA)
    assert tb.idle(), "spin@1e-2"


def test_idle_waits_for_accelerator_runs_not_just_nic_ops():
    """Idle means no NIC op, no accelerator message run and no HPU held.
    Under loss a replicated sPIN write leaves message runs open after
    every NIC op has completed; only the cleanup sweeper reaps them, and
    ``drain`` waits for it."""
    params = SimParams().with_faults(loss_prob=1e-2, seed=1, retransmit=True)
    tb, c = fresh_client("spin", params, n_storage=8)
    c.create("/f", size=SIZE, replication=ReplicationSpec(k=3))
    assert c.write_sync("/f", DATA, protocol="spin").ok
    while any(h.nic.pending_count() for h in [*tb.clients, *tb.storage_nodes]):
        tb.run(until=tb.sim.now + 1_000_000)
    open_runs = sum(n.accelerator.in_flight_messages for n in tb.storage_nodes)
    assert open_runs == 2
    assert not tb.idle()
    assert tb.drain()


# -------------------------------------- trace context across retransmissions
@pytest.mark.parametrize("protocol", ["raw", "spin"])
def test_retransmit_spans_join_request_trace(protocol):
    """A retransmitted packet stays in its request's span tree: the RTO
    backoff windows appear as ``retransmit``-phase children of the same
    trace, and the phase decomposition stays exact under faults."""
    from repro.telemetry.anatomy import decompose

    params = SimParams().with_faults(loss_prob=1e-2, seed=1, retransmit=True)
    tb, c, out = _run_write(protocol, {}, params, telemetry=True)
    assert out.ok, out.nacks
    assert tb.faults.drops > 0
    nics = [tb.clients[0].nic, *(n.nic for n in tb.storage_nodes)]
    assert sum(n.retransmits for n in nics) > 0

    tel = tb.telemetry
    backoffs = [s for s in tel.finished_spans() if s.phase == "retransmit"]
    assert backoffs, "retransmissions must leave backoff spans"
    roots = {
        s.trace_id: s for s in tel.finished_spans() if s.cat == "request"
    }
    for s in backoffs:
        # same span tree as the request whose packet was dropped
        assert s.trace_id in roots
        assert s.parent_id == roots[s.trace_id].span_id

    ops = [op for op in decompose(tel) if op.op == "write" and op.ok]
    assert ops
    # the stall the fault added is attributed to the retransmit phase...
    assert any(op.phases["retransmit"] > 0.0 for op in ops)
    # ...and phases still sum exactly to the end-to-end latency
    for op in ops:
        assert abs(op.sum_error_ns) <= 1.0, (op.name, op.sum_error_ns)


def test_clean_run_has_no_retransmit_phase():
    tb, c, out = _run_write("spin", {}, SimParams(), telemetry=True)
    assert out.ok
    from repro.telemetry.anatomy import decompose

    assert all(s.phase != "retransmit" for s in tb.telemetry.finished_spans())
    for op in decompose(tb.telemetry):
        assert op.phases["retransmit"] == 0.0


# ----------------------------------------------------------- determinism
def test_same_seed_same_trace():
    params = SimParams().with_faults(loss_prob=1e-2, seed=5, retransmit=True)
    runs = []
    for _ in range(2):
        tb, _, out = _run_write("raw", {}, params)
        assert out.ok
        runs.append((out.latency_ns, tb.faults.drops,
                     dict(tb.faults.drops_by_link), tb.sim.now))
    assert runs[0] == runs[1]


def test_different_seed_different_drops():
    def drops(seed):
        params = SimParams().with_faults(loss_prob=2e-2, seed=seed, retransmit=True)
        tb, _, out = _run_write("raw", {}, params)
        assert out.ok
        return dict(tb.faults.drops_by_link)

    assert drops(1) != drops(9)


# ------------------------------------------------------------- give-up path
def test_total_loss_gives_up_cleanly():
    # nothing ever arrives: the op must fail with a "timeout" nack after
    # exhausting its retransmission budget, leaving no pending state
    params = SimParams().with_faults(
        loss_prob=1.0, seed=0, retransmit=True,
        rto_ns=10_000.0, rto_max_ns=40_000.0, max_retransmits=3,
    )
    tb, c, out = _run_write("raw", {}, params, app_retries=1)
    assert not out.ok
    assert out.nacks and out.nacks[0]["reason"] == "timeout"
    assert out.nacks[0]["attempts"] == 4  # original + max_retransmits
    assert tb.clients[0].nic.timeouts == 1
    assert tb.idle(), "total-loss"


# ------------------------------------------------------------ down windows
def test_node_down_window_recovers():
    # every storage NIC black-holes its ingress for the first 50 us; the
    # client's watchdog retransmits after the window and the write lands
    params = SimParams().with_faults(
        node_down=(DownWindow("sn", 0.0, 50_000.0),), retransmit=True,
    )
    tb, c, out = _run_write("raw", {}, params)
    assert out.ok, out.nacks
    assert tb.faults.node_drops > 0
    assert np.array_equal(c.read_back("/f")[:SIZE], DATA)
    assert tb.idle(), "node-down"


def test_link_down_window_recovers():
    # the switch egress towards every storage node is dark for 50 us
    params = SimParams().with_faults(
        link_down=(DownWindow("->sn", 0.0, 50_000.0),), retransmit=True,
    )
    tb, c, out = _run_write("raw", {}, params)
    assert out.ok, out.nacks
    assert tb.faults.drops > 0
    assert all("->sn" in link for link in tb.faults.drops_by_link)
    assert np.array_equal(c.read_back("/f")[:SIZE], DATA)
    assert tb.idle(), "link-down"


# ------------------------------------------------------------- corruption
def test_corruption_dropped_at_receiver_and_recovered():
    # corrupted packets pass the wire but fail the receiving NIC's CRC:
    # receiver-visible loss, recovered by the same retransmission path
    params = SimParams().with_faults(corrupt_prob=2e-2, seed=3, retransmit=True)
    tb, c, out = _run_write("spin", {}, params)
    assert out.ok, out.nacks
    assert tb.faults.corrupted > 0
    nics = [tb.clients[0].nic, *(n.nic for n in tb.storage_nodes)]
    assert sum(n.rx_dropped for n in nics) == tb.faults.corrupted
    assert np.array_equal(c.read_back("/f")[:SIZE], DATA)
    assert tb.idle(), "corrupt"


# ----------------------------------------------------- injector unit tests
def test_injector_streams_are_per_link_and_deterministic():
    class _Pkt:  # egress_verdict only draws one uniform per call
        pass

    def verdicts(seed, link, n=200):
        sim = Simulator()
        inj = FaultInjector(sim, FaultParams(seed=seed, loss_prob=0.1))
        return [inj.egress_verdict(link, _Pkt()) for _ in range(n)]

    a = verdicts(1, "switch->sn0")
    assert a == verdicts(1, "switch->sn0")          # same seed, same fate
    assert a != verdicts(2, "switch->sn0")          # seed matters
    assert a != verdicts(1, "switch->sn1")          # per-link streams
    assert 0 < a.count("drop") < len(a)


def test_fault_params_inactive_by_default():
    assert not FaultParams().active
    assert SimParams().faults is FaultParams() or not SimParams().faults.active
    tb = build_testbed(n_storage=1)
    assert tb.faults is None and tb.sim.faults is None


@pytest.mark.parametrize("field", ["loss_prob", "corrupt_prob"])
@pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
def test_fault_probability_outside_unit_interval_rejected(field, p):
    with pytest.raises(ValueError, match=field):
        FaultParams(**{field: p})
    with pytest.raises(ValueError, match=field):
        SimParams().with_faults(**{field: p})


@pytest.mark.parametrize("argv", [
    ["demo", "--loss", "2"],
    ["demo", "--loss", "-1"],
    ["demo", "--corrupt", "1.5"],
])
def test_demo_cli_rejects_bad_probability(argv, capsys):
    """An out-of-range probability is an argparse error (exit 2) naming the
    field, not a traceback or a silently lossless run."""
    from repro.__main__ import main

    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "_prob must be in [0, 1]" in capsys.readouterr().err


# ------------------------------------------------------ CI smokes, pinned
def test_demo_under_loss_pinned(capsys):
    """The CI fault-injection smoke: seed 2 drops packets at p=1e-3 and
    every protocol recovers and quiesces."""
    from repro.__main__ import main

    assert main(["demo", "--loss", "1e-3", "--seed", "2"]) == 0
    assert ("faults: 10 packets dropped, 0 corrupted; clients recovered "
            "with 18 retransmits (0 ops gave up)") in capsys.readouterr().out


def test_sanitize_demo_under_loss_pinned(capsys, monkeypatch):
    """The CI simsan smoke: the seeded-loss demo runs every protocol point
    sanitized, every run is clean, and the replicated spin point takes a
    pinned event count."""
    from repro.__main__ import main
    from repro.experiments import common

    beds = []
    fresh_client = common.fresh_client

    def recording_fresh_client(protocol, *args, **kw):
        tb, client = fresh_client(protocol, *args, **kw)
        beds.append((protocol, tb))
        return tb, client

    monkeypatch.setattr(common, "fresh_client", recording_fresh_client)
    assert main(["demo", "--loss", "1e-3", "--seed", "2"]) == 0
    assert ("simsan clean: 0 findings in 10 protocol runs"
            in capsys.readouterr().out)
    assert len(beds) == 10 and all(tb.sanitizer is not None for _, tb in beds)
    (spin_k3,) = [tb for proto, tb in beds if proto == "spin"
                  and tb.metadata.lookup("/demo").resiliency == "replication"]
    assert spin_k3.sim.events_dispatched == 2206


def test_demo_fails_naming_the_protocol_with_findings(capsys, monkeypatch):
    """A sanitizer finding in any demo run makes the demo exit 1 and name
    the protocol point it came from."""
    from repro.__main__ import main
    from repro.dfs.cluster import Testbed
    from repro.simsan import Finding

    sanitize_report = Testbed.sanitize_report

    def report_for(tb, quiesce=True):
        report = sanitize_report(tb, quiesce)
        if tb.metadata.lookup("/demo").resiliency == "ec":
            report.findings.append(Finding("leak-accel", tb.sim.now, "planted"))
        return report

    monkeypatch.setattr(Testbed, "sanitize_report", report_for)
    assert main(["demo"]) == 1
    out = capsys.readouterr().out
    assert "spin RS(3,2): simsan: 1 finding(s) (leak-accel=1)" in out
    assert "simsan: findings in spin RS(3,2), inec RS(3,2)" in out
