"""Tests of the benchmark itself (not collected by the tier-1 suite).

Run explicitly::

    python -m pytest bench/test_bench.py

The traced ``--quick`` runs take about half a minute in total.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import compare  # noqa: E402
import run  # noqa: E402
from layers import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(*args: str, cwd: str = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _traced(tmp_path_factory, tag: str) -> dict:
    out = tmp_path_factory.mktemp(tag) / "out.json"
    proc = _bench("--quick", "--reps", "1", "--trace", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    with open(out) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _traced(tmp_path_factory, "a")


@pytest.fixture(scope="module")
def traced_again(tmp_path_factory):
    return _traced(tmp_path_factory, "b")


# ------------------------------------------------------------- contract
def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_schema(trace):
    proc = _bench("--workload", "rpc_onoff", "--seed", "3", "--seconds", "0",
                  "--reps", "1", "--quick", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {
        k: m["unit"] for k, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "incast", "--seed", "1", "--seconds", "10",
                  "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------- layers
def test_self_share_sums_to_one_with_little_other(traced):
    for name, w in traced["workloads"].items():
        shares = {layer: w["per_layer"][f"{layer}.self_share"]["value"]
                  for layer in LAYERS}
        assert abs(sum(shares.values()) - 1.0) <= 0.01, name
        assert shares["other"] <= 0.05, (name, shares["other"])


def test_calls_per_req_repeat_exactly(traced, traced_again):
    for name in WORKLOADS:
        a = traced["workloads"][name]["per_layer"]
        b = traced_again["workloads"][name]["per_layer"]
        for layer in LAYERS:
            key = f"{layer}.calls_per_req"
            assert a[key]["value"] == b[key]["value"], (name, key)


def test_output_checks_pass_on_every_workload(traced):
    assert set(traced["workloads"]) == set(WORKLOADS)
    for name, w in traced["workloads"].items():
        assert w["failures"] == [], name
        assert set(w["metrics"]) == set(run.END_TO_END)


def test_failed_check_names_workload_and_field():
    rep = {
        "checks": {"quiesced": True, "slo_ok": False},
        "latency": {"n": 10, "p50": 1000.0, "p99": 2000.0, "p999": 2000.0},
        "goodput_gbps": 1.0, "issued": 12, "failed": 0, "digest": "ab",
        "setup_s": 0.1, "run_s": 1.0, "setup_cpu_s": 0.1, "run_cpu_s": 1.0,
        "setup_ref_s": 0.1, "run_ref_s": 1.0, "calibration_s": [4e-4],
        "peak_rss_mb": 50.0, "counters": {}, "sim_end_ns": 9e5,
    }
    other = dict(rep, latency=dict(rep["latency"], p99=2500.0))
    s = run.summarize("lossy_telemetry", [rep, other], seed=5, digests={})
    assert any("lossy_telemetry: slo_ok is false" in f for f in s["failures"])
    assert any("lossy_telemetry: sim_p99_us differs across reps" in f
               for f in s["failures"])
    s = run.summarize("incast", [rep], seed=run.DEFAULT_SEED, digests={"incast": "cd"})
    assert any("incast: schedule_digest ab != recorded cd" in f for f in s["failures"])


# --------------------------------------------------------------- compare
def _host(unit, q1, med, q3):
    return {"value": med, "unit": unit, "q1": q1, "q3": q3}


def _result(rps, affinity=2, p50=2.5, calls=100.0):
    metrics = {
        "setup_s": _host("s", 0.5, 0.5, 0.5),
        "requests_per_s": _host("1/s", *rps),
        "peak_rss_mb": _host("MiB", 100.0, 100.0, 100.0),
        "sim_p50_us": {"value": p50, "unit": "sim_us"},
        "sim_p99_us": {"value": 3.0, "unit": "sim_us"},
        "sim_goodput_gbps": {"value": 1.0, "unit": "Gbit/s"},
    }
    per_layer = {f"{layer}.calls_per_req": {"value": calls, "unit": "calls/req"}
                 for layer in LAYERS}
    return {
        "meta": {"cpus_affinity": affinity, "python": "3.11.7"},
        "seed": 1, "quick": False,
        "workloads": {"incast": {"metrics": metrics, "per_layer": per_layer}},
    }


BOUNDS = compare.load_bounds()


def test_compare_unchanged():
    lines, status = compare.compare(_result([990, 1000, 1010]),
                                    _result([995, 1000, 1005]), BOUNDS)
    assert status == 0, lines
    assert "requests_per_s=unchanged" in lines[-1]


def test_compare_regressed():
    lines, status = compare.compare(_result([990, 1000, 1010]),
                                    _result([695, 700, 705]), BOUNDS)
    assert status == 1
    assert "requests_per_s=regressed" in lines[-1]


def test_compare_unresolved():
    lines, status = compare.compare(_result([990, 1000, 1010]),
                                    _result([600, 1000, 1400]), BOUNDS)
    assert status == 1
    assert "requests_per_s=unresolved" in lines[-1]


def test_compare_refuses_host_metrics_across_hosts():
    lines, status = compare.compare(_result([1000] * 3, affinity=1),
                                    _result([500] * 3, affinity=2), BOUNDS)
    assert status == 2
    assert "refusing to compare host-time metrics" in lines[0]
    assert "cpus_affinity 1 != 2" in lines[0]
    assert "requests_per_s=refused" in lines[-1]


def test_compare_sim_and_calls_mismatch_fail():
    a = _result([1000] * 3)
    b = copy.deepcopy(a)
    b["workloads"]["incast"]["metrics"]["sim_p50_us"]["value"] = 2.6
    b["workloads"]["incast"]["per_layer"]["pspin.calls_per_req"]["value"] = 101.0
    lines, status = compare.compare(a, b, BOUNDS)
    assert status == 1
    assert "sim_p50_us=MISMATCH" in lines[-1]
    assert "calls_per_req=MISMATCH(pspin)" in lines[-1]
