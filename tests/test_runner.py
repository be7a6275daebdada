"""Parallel sweep runner: determinism, caching, key derivation."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro import experiments, runner
from repro.experiments import fig06_auth_latency as fig06
from repro.params import SimParams


def _dumps(rows):
    return json.dumps(rows, sort_keys=True)


def test_parallel_rows_identical_to_serial(monkeypatch):
    """--jobs N must be byte-identical to --jobs 1 (same rows, same order)."""
    serial = experiments.run("fig06", quick=True, jobs=1, cache=False)
    # pretend to have cores so the clamp doesn't serialize us on 1-CPU CI
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 4)
    parallel = experiments.run("fig06", quick=True, jobs=2, cache=False)
    assert _dumps(serial) == _dumps(parallel)
    assert runner.LAST_STATS.jobs == 2
    assert runner.LAST_STATS.n_computed == len(serial)


def test_small_sweeps_skip_the_pool(monkeypatch, tmp_path):
    """Workers are clamped to the points left to compute: four misses
    get four workers, and a sweep with one miss runs serially."""
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 64)
    rows = experiments.run("fig06", quick=True, jobs=16, cache=False)
    assert runner.LAST_STATS.jobs == len(rows) == 4
    cdir = str(tmp_path / "cache")
    pts = fig06.points(quick=True)[:2]
    runner.run_sweep(fig06.ID, pts[:1], cache=True, cache_dir_override=cdir)
    runner.run_sweep(fig06.ID, pts, jobs=16, cache=True, cache_dir_override=cdir)
    assert (runner.LAST_STATS.n_cached, runner.LAST_STATS.jobs) == (1, 1)


def test_jobs_clamped_to_cpu_count(monkeypatch):
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 2)
    rows = experiments.run("fig06", quick=True, jobs=64, cache=False)
    assert rows
    assert runner.LAST_STATS.jobs == 2


def test_cache_hit_returns_identical_rows_without_resimulating(tmp_path):
    cdir = str(tmp_path / "cache")
    cold = experiments.run("fig06", quick=True, jobs=1, cache=True, cache_dir=cdir)
    stats = runner.LAST_STATS
    assert stats.n_computed == len(cold) and stats.n_cached == 0

    warm = experiments.run("fig06", quick=True, jobs=1, cache=True, cache_dir=cdir)
    stats = runner.LAST_STATS
    assert stats.n_cached == len(warm) and stats.n_computed == 0
    assert _dumps(cold) == _dumps(warm)


def test_cached_rows_really_come_from_disk(tmp_path):
    """Tamper with a cache entry; the tampered row must come back (proof
    that a hit short-circuits the simulation entirely)."""
    cdir = tmp_path / "cache"
    experiments.run("fig06", quick=True, jobs=1, cache=True, cache_dir=str(cdir))
    victim = sorted(cdir.glob("*.json"))[0]
    entry = json.loads(victim.read_text())
    entry["row"]["raw"] = -123.0
    victim.write_text(json.dumps(entry))

    rows = experiments.run("fig06", quick=True, jobs=1, cache=True, cache_dir=str(cdir))
    assert runner.LAST_STATS.n_cached == len(rows)
    assert any(r["raw"] == -123.0 for r in rows)


def test_cache_keys_depend_on_point_params_and_source():
    src = runner.source_hash()
    k1 = runner.point_key(fig06.ID, {"size": 1024}, None, src)
    assert k1 == runner.point_key(fig06.ID, {"size": 1024}, None, src)
    assert k1 != runner.point_key(fig06.ID, {"size": 2048}, None, src)
    assert k1 != runner.point_key(fig06.ID, {"size": 1024}, SimParams(), src)
    assert k1 != runner.point_key(fig06.ID, {"size": 1024}, None, "othersrc")
    assert k1 != runner.point_key("other", {"size": 1024}, None, src)


_FIG06_CACHED = """
import json, sys
from repro import experiments, runner
rows = experiments.run("fig06", quick=True, cache=True, cache_dir=sys.argv[1])
print(json.dumps({"n_cached": runner.LAST_STATS.n_cached,
                  "rpc": [r["rpc"] for r in rows]}))
"""


def test_simulator_edit_invalidates_cached_rows(tmp_path):
    """The cache key covers the whole package, not just the experiment
    module: editing the RPC protocol's cost model must miss the cache."""
    pkg = tmp_path / "src" / "repro"
    shutil.copytree(Path(runner.__file__).parent, pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(pkg.parent))
    cdir = str(tmp_path / "cache")

    def run():
        out = subprocess.run([sys.executable, "-c", _FIG06_CACHED, cdir],
                             env=env, cwd=tmp_path, capture_output=True,
                             text=True, check=True)
        return json.loads(out.stdout)

    before = run()
    assert run() == dict(before, n_cached=len(before["rpc"]))
    rpc = pkg / "protocols" / "rpc.py"
    src = rpc.read_text()
    cost = "p.rpc_validate_cycles / p.cpu_freq_ghz"
    assert cost in src
    rpc.write_text(src.replace(cost, f"10 * {cost}"))
    after = run()
    assert after["n_cached"] == 0
    assert after["rpc"] != before["rpc"]


def test_corrupt_cache_entry_is_recomputed(tmp_path):
    cdir = tmp_path / "cache"
    experiments.run("fig06", quick=True, jobs=1, cache=True, cache_dir=str(cdir))
    for f in cdir.glob("*.json"):
        f.write_text("{not json")
    rows = experiments.run("fig06", quick=True, jobs=1, cache=True, cache_dir=str(cdir))
    assert runner.LAST_STATS.n_computed == len(rows)


def test_point_seed_is_stable():
    s = runner.point_seed("exp", {"loss": 1e-3})
    assert s == runner.point_seed("exp", {"loss": 1e-3})
    assert s != runner.point_seed("exp", {"loss": 1e-2})
    assert s != runner.point_seed("other", {"loss": 1e-3})


def test_all_converted_experiments_expose_the_point_protocol():
    from repro.experiments import REGISTRY

    converted = [eid for eid, mod in REGISTRY.items() if hasattr(mod, "run_point")]
    assert {"fig06", "fig09_latency", "fig10", "fig11_table1", "fig15_latency",
            "fig16_table2", "loss"} <= set(converted)
    for eid in converted:
        mod = REGISTRY[eid]
        pts = mod.points(quick=True)
        assert pts, eid
        # points must round-trip through JSON (cache + pool pickling)
        assert json.loads(json.dumps(pts)) == pts, eid


@pytest.mark.parametrize("eid", ["fig15_latency", "loss"])
def test_single_point_matches_full_sweep_row(eid):
    """run_point on the first point reproduces the first row of run()."""
    from repro.experiments import REGISTRY

    mod = REGISTRY[eid]
    rows = experiments.run(eid, quick=True, jobs=1, cache=False)
    row = runner._exec_point(eid, mod.points(quick=True)[0], None)
    assert _dumps([rows[0]]) == _dumps([row])
