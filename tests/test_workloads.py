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
    from repro.workloads import measure_latency_distribution

    tb, c = _env()
    data = payload_bytes(4 * KiB)
    stats = measure_latency_distribution(
        tb, lambda i: c.write("/f", data, protocol="spin"), n_ops=16, window=4
    )
    assert stats["n"] == 16
    assert 0 < stats["min"] <= stats["median"] <= stats["p99"] <= stats["max"]


def test_latency_distribution_tail_grows_under_load():
    """Deeper windows queue more: the p99 under load exceeds the
    unloaded median."""
    from repro.workloads import measure_latency_distribution

    def stats(window):
        tb, c = _env()
        data = payload_bytes(16 * KiB)
        return measure_latency_distribution(
            tb, lambda i: c.write("/f", data, protocol="spin"),
            n_ops=32, window=window,
        )

    light, heavy = stats(1), stats(24)
    assert heavy["p99"] > light["median"] * 1.5
