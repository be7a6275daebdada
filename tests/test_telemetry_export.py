"""Exporters: Perfetto trace_event round-trip, metrics dumps, CLI smoke."""

import csv
import json

import numpy as np
import pytest

from repro.dfs.client import DfsClient
from repro.dfs.cluster import build_testbed
from repro.dfs.layout import ReplicationSpec
from repro.protocols import install_spin_targets
from repro.telemetry import (
    Telemetry,
    chrome_trace,
    dump_metrics,
    metrics_snapshot,
    trace_events,
    utilization_report,
    write_chrome_trace,
)


@pytest.fixture(scope="module")
def traced_testbed():
    tb = build_testbed(n_storage=4, telemetry=True)
    install_spin_targets(tb)
    client = DfsClient(tb)
    client.create("/f", size=128 * 1024, replication=ReplicationSpec(k=3))
    out = client.write_sync("/f", np.arange(64 * 1024, dtype=np.uint8), protocol="spin")
    assert out.ok
    tb.run(until=tb.sim.now + 200_000)
    return tb


# ------------------------------------------------------------- perfetto
def test_perfetto_round_trip(traced_testbed, tmp_path):
    tb = traced_testbed
    path = tmp_path / "run.trace.json"
    write_chrome_trace(tb.telemetry, str(path))
    doc = json.loads(path.read_text())  # must be valid JSON as written
    assert doc["displayTimeUnit"] == "ns"
    events = doc["traceEvents"]
    assert events

    meta = [e for e in events if e["ph"] == "M"]
    slices = [e for e in events if e["ph"] == "X"]
    counters = [e for e in events if e["ph"] == "C"]
    assert slices and counters
    assert {e["ph"] for e in events} <= {"M", "X", "C"}

    # every pid/tid referenced by a slice has name metadata
    named_pids = {e["pid"] for e in meta if e["name"] == "process_name"}
    named_tids = {(e["pid"], e["tid"]) for e in meta if e["name"] == "thread_name"}
    for e in slices:
        assert e["pid"] in named_pids
        assert (e["pid"], e["tid"]) in named_tids

    # timestamps: non-negative, durations non-negative, monotonic order
    # over the non-metadata tail
    timed = [e for e in events if e["ph"] != "M"]
    ts = [e["ts"] for e in timed]
    assert ts == sorted(ts)
    assert all(t >= 0 for t in ts)
    assert all(e["dur"] >= 0 for e in slices)

    # slices carry the span/trace linkage in args
    root = next(e for e in slices if e["cat"] == "request")
    tid = root["args"]["trace_id"]
    linked = [e for e in slices if e["args"].get("trace_id") == tid]
    assert {e["cat"] for e in linked} >= {"request", "net", "hpu", "host"}


def test_perfetto_track_names_cover_layers(traced_testbed):
    # process names lead with the simulated component, so the viewer
    # groups tracks by pipeline stage instead of bare ids
    events = trace_events(traced_testbed.telemetry)
    names = {
        e["args"]["name"] for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert "[request] requests" in names
    assert "[wire] net" in names
    assert "[metrics] metrics" in names
    assert any(n.startswith("[hpu] pspin:") for n in names)
    assert any(n.startswith("[host] host:") for n in names)


def test_perfetto_component_sort_order(traced_testbed):
    # sort indices put components in pipeline order: request tracks
    # first, then wire, hpu, host, metrics
    events = trace_events(traced_testbed.telemetry)
    name_by_pid = {
        e["pid"]: e["args"]["name"] for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    sort_by_pid = {
        e["pid"]: e["args"]["sort_index"] for e in events
        if e["ph"] == "M" and e["name"] == "process_sort_index"
    }
    assert set(sort_by_pid) == set(name_by_pid)  # every process is ranked

    def rank(prefix):
        return {v for p, v in sort_by_pid.items() if name_by_pid[p].startswith(prefix)}

    (req,) = rank("[request]")
    (wire,) = rank("[wire]")
    assert req < wire < min(rank("[hpu]")) < min(rank("[host]")) < min(rank("[metrics]"))


def test_perfetto_phase_colors(traced_testbed):
    # phase-tagged spans carry the phase in args and a distinct cname
    events = trace_events(traced_testbed.telemetry)
    slices = [e for e in events if e["ph"] == "X"]
    phased = [e for e in slices if "phase" in e["args"]]
    assert phased
    cnames = {e["args"]["phase"]: e.get("cname") for e in phased}
    assert {"wire", "hpu", "dma"} <= set(cnames)
    assert all(c is not None for c in cnames.values())
    assert len(set(cnames.values())) == len(cnames)  # distinct per phase
    # request roots are unphased: they are the window being decomposed
    roots = [e for e in slices if e["cat"] == "request"]
    assert roots and all("phase" not in e["args"] for e in roots)


def test_perfetto_timestamps_are_microseconds():
    tel = Telemetry(enabled=True)
    tel.span("s", pid="p", tid="t", t0=1500.0, t1=4500.0)  # ns
    (ev,) = [e for e in trace_events(tel) if e["ph"] == "X"]
    assert ev["ts"] == pytest.approx(1.5)
    assert ev["dur"] == pytest.approx(3.0)


def test_open_spans_and_counterless_export():
    tel = Telemetry(enabled=True)
    tel.begin("never-closed", pid="p", tid="t", t0=0.0)
    assert [e for e in trace_events(tel) if e["ph"] == "X"] == []
    doc = chrome_trace(tel, include_counters=False)
    assert all(e["ph"] != "C" for e in doc["traceEvents"])


def test_export_does_not_mutate_telemetry(traced_testbed):
    tel = traced_testbed.telemetry
    n_spans = len(tel.spans)
    n_gauges = len(tel.metrics.gauges)
    trace_events(tel)
    chrome_trace(tel)
    assert len(tel.spans) == n_spans
    assert len(tel.metrics.gauges) == n_gauges


# ------------------------------------------------------------ metrics IO
def test_metrics_json_dump(traced_testbed, tmp_path):
    tb = traced_testbed
    path = tmp_path / "metrics.json"
    dump_metrics(tb.telemetry, str(path), fmt="json", now=tb.sim.now,
                 profile=tb.sim.profile())
    snap = json.loads(path.read_text())
    assert set(snap) >= {"counters", "gauges", "histograms", "sim_now_ns",
                         "n_spans", "simulator_profile"}
    assert snap["sim_now_ns"] == tb.sim.now
    assert any(k.endswith(".latency_ns") for k in snap["histograms"])
    assert snap["simulator_profile"]["events_dispatched"] > 0


def test_metrics_csv_dump(traced_testbed, tmp_path):
    tb = traced_testbed
    path = tmp_path / "metrics.csv"
    dump_metrics(tb.telemetry, str(path), fmt="csv", now=tb.sim.now)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert set(rows[0]) == {"kind", "name", "stat", "value"}
    kinds = {r["kind"] for r in rows}
    assert kinds == {"counter", "gauge", "histogram"}


def test_dump_metrics_rejects_unknown_format(traced_testbed, tmp_path):
    with pytest.raises(ValueError):
        dump_metrics(traced_testbed.telemetry, str(tmp_path / "x"), fmt="xml")


def test_metrics_snapshot_without_profile():
    tel = Telemetry(enabled=True)
    tel.metrics.counter("c").inc()
    snap = metrics_snapshot(tel, now=5.0)
    assert "simulator_profile" not in snap
    assert snap["counters"]["c"] == 1.0


def test_utilization_report(traced_testbed):
    tb = traced_testbed
    p = tb.params.pspin
    util = utilization_report(tb.telemetry, tb.sim.now,
                              n_hpus_per_node=p.n_clusters * p.hpus_per_cluster)
    assert set(util) == {"max_hpu_busy", "max_link_busy", "max_pcie_busy"}
    assert 0 < util["max_hpu_busy"] <= 1.0
    assert 0 < util["max_link_busy"] <= 1.0
    assert 0 < util["max_pcie_busy"] <= 1.0
    # empty sink / t=0 degenerate cases stay at zero
    assert utilization_report(Telemetry(), 0.0, 8)["max_link_busy"] == 0.0


# ------------------------------------------------------------------- CLI
def test_trace_cli_smoke(tmp_path, capsys):
    from repro.__main__ import main

    out = tmp_path / "cli.trace.json"
    metrics = tmp_path / "cli.metrics.csv"
    rc = main(["trace", "--protocol", "spin", "--replication", "3",
               "--size", "16384", "--storage", "4",
               "--out", str(out), "--metrics", str(metrics)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "ui.perfetto.dev" in printed
    doc = json.loads(out.read_text())
    cats = {e.get("cat") for e in doc["traceEvents"] if e["ph"] == "X"}
    assert {"request", "net", "hpu", "host"} <= cats
    with open(metrics, newline="") as fh:
        assert list(csv.DictReader(fh))


def test_trace_cli_replicated_spin_write_schema(tmp_path, capsys):
    """A default-size telemetry-on 3-way replicated sPIN write exported
    through the CLI: a well-formed Perfetto document covering every
    layer, and a JSON metrics dump with counters and a latency
    histogram."""
    from repro.__main__ import main

    trace_path = tmp_path / "ci.trace.json"
    metrics_path = tmp_path / "ci.metrics.json"
    assert main(["trace", "--protocol", "spin", "--replication", "3",
                 "--out", str(trace_path), "--metrics", str(metrics_path)]) == 0
    capsys.readouterr()
    doc = json.loads(trace_path.read_text())
    events = doc["traceEvents"]
    assert doc["displayTimeUnit"] == "ns", "missing displayTimeUnit"
    assert events, "empty traceEvents"
    slices = [e for e in events if e["ph"] == "X"]
    named = {e["pid"] for e in events if e["ph"] == "M" and e["name"] == "process_name"}
    for e in slices:
        assert e["ts"] >= 0 and e["dur"] >= 0, f"bad timing in {e}"
        assert e["pid"] in named, f"slice on unnamed pid {e['pid']}"
    cats = {e["cat"] for e in slices}
    missing = {"request", "net", "hpu", "host"} - cats
    assert not missing, f"trace missing layers: {missing}"
    timed = [e["ts"] for e in events if e["ph"] != "M"]
    assert timed == sorted(timed), "timestamps not monotonic"

    snap = json.loads(metrics_path.read_text())
    assert snap["counters"], "metrics dump has no counters"
    assert any(k.endswith(".latency_ns") for k in snap["histograms"]), \
        "no request-latency histogram"
