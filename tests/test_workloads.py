"""Workload driver tests."""

import numpy as np
import pytest

from repro.dfs.client import DfsClient
from repro.dfs.cluster import build_testbed
from repro.protocols import install_spin_targets
from repro.workloads import (
    measure_goodput,
    measure_write_latency,
    optimal_chunk_size,
    payload_bytes,
)

KiB = 1024


def test_payload_bytes_deterministic():
    a = payload_bytes(1000, seed=3)
    b = payload_bytes(1000, seed=3)
    c = payload_bytes(1000, seed=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.dtype == np.uint8


def _env():
    tb = build_testbed(n_storage=4)
    install_spin_targets(tb)
    c = DfsClient(tb)
    c.create("/f", size=64 * KiB)
    return tb, c


def test_measure_write_latency_median():
    _, c = _env()
    lat = measure_write_latency(c, "/f", 4 * KiB, "spin", warmup=1, repeats=3)
    assert lat > 0


def test_measure_write_latency_fails_loudly_on_nack():
    _, c = _env()
    c._tickets.clear()
    with pytest.raises(RuntimeError):
        measure_write_latency(c, "/f", 1 * KiB, "spin", warmup=0, repeats=1)


def test_measure_goodput_accounts_all_ops():
    tb, c = _env()
    data = payload_bytes(8 * KiB)
    res = measure_goodput(
        tb, lambda i: c.write("/f", data, protocol="spin"),
        n_ops=10, op_bytes=8 * KiB, window=4,
    )
    assert res.n_ops == 10
    assert res.bytes_completed == 10 * 8 * KiB
    assert res.goodput_gbps > 0


def test_goodput_window_speedup():
    """A wider window overlaps writes and raises goodput."""
    def run(window):
        tb, c = _env()
        data = payload_bytes(4 * KiB)
        return measure_goodput(
            tb, lambda i: c.write("/f", data, protocol="spin"),
            n_ops=24, op_bytes=4 * KiB, window=window,
        ).goodput_gbps

    assert run(8) > 2 * run(1)


def test_optimal_chunk_size_picks_minimum():
    costs = {8 << 10: 50.0, 16 << 10: 30.0, 32 << 10: 40.0}
    best, lat = optimal_chunk_size(lambda c: costs.get(c, 100.0), list(costs))
    assert best == 16 << 10 and lat == 30.0


def test_optimal_chunk_size_default_candidates():
    seen = []

    def run(c):
        seen.append(c)
        return float(c)

    best, _ = optimal_chunk_size(run)
    assert best == min(seen)
    assert len(seen) == 6


def test_latency_distribution_summary():
    tb, c = _env()
    data = payload_bytes(4 * KiB)
    stats = measure_goodput(
        tb, lambda i: c.write("/f", data, protocol="spin"),
        n_ops=16, op_bytes=4 * KiB, window=4,
    ).latency
    assert stats["n"] == 16
    assert 0 < stats["min"] <= stats["median"] <= stats["p99"] <= stats["max"]


def test_latency_distribution_tail_grows_under_load():
    """Deeper windows queue more: the p99 under load exceeds the
    unloaded median."""
    def stats(window):
        tb, c = _env()
        data = payload_bytes(16 * KiB)
        return measure_goodput(
            tb, lambda i: c.write("/f", data, protocol="spin"),
            n_ops=32, op_bytes=16 * KiB, window=window,
        ).latency

    light, heavy = stats(1), stats(24)
    assert heavy["p99"] > light["median"] * 1.5


def test_load_engine_smoke_pinned():
    """8 closed-loop clients at a fixed seed: exact op counts, every
    client served, and the run quiesces."""
    from repro.workloads import LoadSpec, closed_loop_write_load

    tb = build_testbed(n_storage=4, n_clients=4)
    install_spin_targets(tb)
    spec = LoadSpec(n_clients=8, outstanding=2, think_ns=2_000.0,
                    warmup_ns=50_000.0, measure_ns=400_000.0, seed=7)
    res = closed_loop_write_load(tb, 8192, "spin", spec)
    assert res.quiesced, "load engine failed to quiesce"
    assert res.ops == 1399, f"aggregate measured ops drifted: {res.ops} != 1399"
    assert res.issued == 1568, f"issued ops drifted: {res.issued} != 1568"
    assert all(pc["ops"] > 0 for pc in res.per_client), "a client starved"


@pytest.fixture
def never_idle(monkeypatch):
    """A testbed that never goes idle: drain() spends its whole budget."""
    from repro.dfs.cluster import Testbed

    monkeypatch.setattr(Testbed, "idle", lambda self: False)


def test_closed_loop_quiesced_is_testbed_idle(never_idle):
    """``quiesced`` is what Testbed.drain() returns, even though every
    request completed."""
    from repro.workloads import LoadSpec, closed_loop_write_load

    tb = build_testbed(n_storage=2, n_clients=1)
    install_spin_targets(tb)
    spec = LoadSpec(n_clients=2, warmup_ns=10_000.0, measure_ns=50_000.0)
    res = closed_loop_write_load(tb, 4 * KiB, "spin", spec)
    assert res.ops > 0 and not res.quiesced


def test_open_loop_quiesced_is_testbed_idle(never_idle):
    """The open loop, and so the scenario row, report the same flag."""
    from repro.scenarios import ScenarioSpec, run_scenario
    from repro.scenarios.spec import TopologySpec
    from repro.workloads.openloop import ArrivalSpec, OpenLoopSpec

    scenario = ScenarioSpec(
        name="tiny",
        topology=TopologySpec(n_storage=2, n_clients=1),
        workload=OpenLoopSpec(
            n_users=8, arrival=ArrivalSpec(kind="poisson", rate_hz=20_000.0),
            measure_ns=200_000.0,
        ),
    )
    row = run_scenario(scenario, seed=1)
    assert row["ops"] > 0 and row["quiesced"] is False
