"""Edge-case coverage across modules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DfsClient, build_testbed
from repro.simnet import Message, Packet, Simulator, segment_message

KiB = 1024


# ------------------------------------------------------------ segmentation
@settings(max_examples=80, deadline=None)
@given(
    size=st.integers(min_value=0, max_value=200_000),
    header=st.integers(min_value=0, max_value=512),
    mtu=st.sampled_from([512, 1024, 2048, 4096, 9000]),
)
def test_segmentation_invariants(size, header, mtu):
    data = np.zeros(size, dtype=np.uint8) if size else None
    msg = Message(src="a", dst="b", op="write", data=data, header_bytes=header)
    pkts = segment_message(msg, mtu)
    # exactly one header, exactly one completion
    assert sum(p.is_header for p in pkts) == 1
    assert sum(p.is_completion for p in pkts) == 1
    # payload bytes conserved
    assert sum(p.payload_bytes for p in pkts) == size
    # MTU respected: dfs headers + payload never exceed it
    for p in pkts:
        assert p.header_bytes + p.payload_bytes <= mtu
    # offsets consistent with payload ordering
    off = 0
    for p in pkts:
        assert p.payload_offset == off
        off += p.payload_bytes
    # seq numbering dense
    assert [p.seq for p in pkts] == list(range(len(pkts)))


# ---------------------------------------------------------------- nic edges
def test_unknown_packet_op_raises():
    tb = build_testbed(n_storage=1)
    from repro.simnet.packet import Packet

    pkt = Packet(src="client0", dst="sn0", op="quux", msg_id=1, seq=0, nseq=1)
    tb.clients[0].nic.port.send(pkt)
    with pytest.raises(ValueError, match="unknown packet op"):
        tb.run(until=100_000)


def test_write_packet_without_header_silently_dropped():
    tb = build_testbed(n_storage=1)
    pkt = Packet(src="client0", dst="sn0", op="write", msg_id=77, seq=1, nseq=3,
                 payload=np.zeros(100, dtype=np.uint8))
    tb.clients[0].nic.port.send(pkt)
    tb.run(until=100_000)  # no crash, no write
    assert tb.node("sn0").memory.bytes_written == 0


def test_post_read_from_empty_region_ok():
    tb = build_testbed(n_storage=1)
    res = tb.run_until(tb.clients[0].nic.post_read("sn0", 0, 1000))
    assert res.ok and res.data.nbytes == 1000 and not res.data.any()


def test_send_control_requires_port():
    from repro.params import SimParams
    from repro.rdma.nic import RdmaNic

    sim = Simulator()

    class FakeHost:
        memory = None
        pcie = None

    nic = RdmaNic(sim, SimParams(), FakeHost(), "lonely")
    with pytest.raises(AssertionError):
        nic.send_control("x", "ack", {})


# ----------------------------------------------------------- metadata edges
def test_allocate_extent_and_update_layout():
    tb = build_testbed(n_storage=2)
    ext = tb.metadata.allocate_extent("sn0", 1000)
    assert ext.node == "sn0" and ext.length == 1000
    from repro.dfs.metadata import MetadataError

    with pytest.raises(MetadataError):
        tb.metadata.update_layout("/nope", None)  # type: ignore[arg-type]


# --------------------------------------------------------------- cli / csv
def test_experiments_csv_export(tmp_path):
    from repro.experiments.__main__ import main

    out = tmp_path / "rows.csv"
    assert main(["fig04", "--quick", "--csv", str(out)]) == 0
    text = out.read_text()
    assert "n_writes" in text.splitlines()[0]
    assert len(text.splitlines()) > 10


def test_top_level_cli_info(capsys):
    from repro.__main__ import main

    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "400 Gbit/s" in out and "77 B/request" in out


@pytest.mark.parametrize("argv,flag", [
    (["demo", "--loss", "0.01", "--seed", "-1"], "--seed"),
    (["scenario", "--name", "incast", "--seed", "-1"], "--seed"),
    (["trace", "--size", "-5"], "--size"),
    (["trace", "--ec", "0", "0"], "--ec"),
    (["trace", "--storage", "0"], "--storage"),
    (["trace", "--replication", "-2"], "--replication"),
    (["trace", "--replication", "3", "--storage", "2"], "--storage"),
    (["perf", "--check", "MISSING"], "--check"),
    (["slo", "--check", "MISSING"], "--check"),
    (["sanitize", "--seed", "-1"], "--seed"),
    # a NaN, negative or infinite noise band would switch the regression
    # gate off, a tolerance >= 100% would make the floor negative, and
    # fewer than one job would silently run serial
    (["slo", "--rtol", "nan"], "--rtol: must be"),
    (["slo", "--rtol", "-0.1"], "--rtol: must be"),
    (["slo", "--atol", "inf"], "--atol: must be"),
    (["perf", "--tolerance", "-3"], "--tolerance: must be"),
    (["perf", "--tolerance", "1"], "--tolerance: must be"),
    (["experiments", "fig04", "--jobs", "0"], "--jobs: must be"),
    (["experiments", "fig04", "--jobs", "-3"], "--jobs: must be"),
], ids=["demo-seed", "scenario-seed", "trace-size", "trace-ec", "trace-storage",
        "trace-replication", "trace-storage-vs-layout", "perf-check", "slo-check",
        "sanitize-seed", "slo-rtol-nan", "slo-rtol-negative", "slo-atol-inf",
        "perf-tolerance-negative", "perf-tolerance-one", "experiments-jobs-zero",
        "experiments-jobs-negative"])
def test_cli_bad_number_or_path_is_usage_error(argv, flag, capsys, tmp_path, monkeypatch):
    """A bad number or baseline path is an argparse error (exit 2) naming
    the flag, raised before any simulation runs."""
    import repro.experiments.__main__
    import repro.perfsnap
    import repro.slo
    from repro.__main__ import main

    def measured(*a, **kw):
        raise AssertionError("measured before the arguments were checked")

    monkeypatch.setattr(repro.perfsnap, "collect_snapshot", measured)
    monkeypatch.setattr(repro.slo, "run_suite", measured)
    monkeypatch.setattr(repro.experiments.__main__, "run", measured)
    argv = [str(tmp_path / "missing.json") if a == "MISSING" else a for a in argv]
    if argv[0] == "experiments":
        main, argv = repro.experiments.__main__.main, argv[1:]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert flag in capsys.readouterr().err


def test_sanitize_matrix_fails_a_scenario_that_did_not_quiesce(capsys, monkeypatch):
    """``repro sanitize`` exits 1 when a scenario leaves work in flight,
    even when the sanitizer itself reports no findings."""
    import repro.scenarios
    from repro.__main__ import main
    from repro.simsan.findings import Report

    def run_scenario(spec, seed, timings, sanitize):
        timings["sanitizer"] = Report()
        timings["events"] = 0
        return {"quiesced": spec.name != "incast", "schedule_digest": "0"}

    monkeypatch.setattr(repro.scenarios, "run_scenario", run_scenario)
    assert main(["sanitize"]) == 1
    out = capsys.readouterr().out
    assert "incast             clean" in out and "quiesced=False" in out
    assert "FAIL — 1/4 scenarios" in out


# ---------------------------------------------------------------- hyperloop
def test_hyperloop_requires_config_before_data():
    """Data arriving for an unconfigured ring is dropped gracefully by
    the hook-owner NIC (unknown ring -> KeyError surfaces in sim)."""
    from repro.protocols import install_hyperloop_targets

    tb = build_testbed(n_storage=2)
    install_hyperloop_targets(tb)
    pkt = Packet(src="client0", dst="sn0", op="write", msg_id=5, seq=0, nseq=1,
                 payload=np.zeros(64, np.uint8),
                 headers={"hl_ring": "ghost", "chunk_off": 0, "addr": 0, "greq_id": 1})
    tb.clients[0].nic.port.send(pkt)
    with pytest.raises(KeyError):
        tb.run(until=200_000)


# -------------------------------------------------------------------- inec
def test_inec_interleaved_blocks_do_not_cross_talk():
    from repro import EcSpec
    from repro.protocols import install_inec_targets

    tb = build_testbed(n_storage=8)
    install_inec_targets(tb)
    c = DfsClient(tb)
    c.create("/a", size=30 * KiB, ec=EcSpec(k=3, m=1))
    c.create("/b", size=30 * KiB, ec=EcSpec(k=3, m=1))
    da = np.full(30 * KiB, 1, dtype=np.uint8)
    db = np.full(30 * KiB, 2, dtype=np.uint8)
    ea = c.write("/a", da, protocol="inec")
    eb = c.write("/b", db, protocol="inec")
    assert tb.run_until(ea).ok and tb.run_until(eb).ok
    tb.run(until=tb.sim.now + 300_000)
    assert np.array_equal(c.read_back("/a"), da)
    assert np.array_equal(c.read_back("/b"), db)


def test_api_doc_generator_runs(tmp_path):
    import importlib.util
    from pathlib import Path

    spec = importlib.util.spec_from_file_location(
        "gen_api_docs", Path(__file__).parent.parent / "scripts" / "gen_api_docs.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    committed = mod.OUT.read_text()
    mod.OUT = tmp_path / "API.md"
    assert mod.main() == 0
    text = mod.OUT.read_text()
    assert "repro.core.handlers" in text
    assert "DfsPolicy" in text
    # docs/API.md is generated: regenerate it with scripts/gen_api_docs.py
    # after any public API change
    assert text == committed, "docs/API.md is stale: run scripts/gen_api_docs.py"
