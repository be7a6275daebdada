"""summarize / percentile tests."""

import pytest

from repro.simnet.trace import summarize


def test_summarize_empty():
    # Zero samples produce no statistics: a 0.0 "latency" from an empty
    # population reads as an excellent result instead of a missing one.
    s = summarize([])
    assert s["n"] == 0
    assert s["mean"] is None and s["p90"] is None
    assert s["p999"] is None and s["std"] is None


def test_summarize_stats():
    # Linear-interpolation percentiles (numpy default method), not
    # nearest-rank: p99 of 5 samples interpolates toward the max rather
    # than collapsing onto it.
    s = summarize([1.0, 2.0, 3.0, 4.0, 100.0])
    assert s["n"] == 5
    assert s["min"] == 1.0 and s["max"] == 100.0
    assert s["mean"] == pytest.approx(22.0)
    assert s["median"] == 3.0
    assert s["p50"] == s["median"]
    assert s["p90"] == pytest.approx(61.6)
    assert s["p99"] == pytest.approx(96.16)
    assert s["p999"] == pytest.approx(99.616)
    assert s["std"] == pytest.approx(1522.0**0.5)  # population std


def test_summarize_matches_numpy():
    np = pytest.importorskip("numpy")
    samples = [float(x) for x in (5, 1, 9, 2, 7, 3, 8, 4, 6, 100)]
    s = summarize(samples)
    for key, q in (("p50", 50), ("p90", 90), ("p99", 99), ("p999", 99.9)):
        assert s[key] == pytest.approx(float(np.percentile(samples, q)))
    assert s["std"] == pytest.approx(float(np.std(samples)))


def test_summarize_single():
    s = summarize([7.0])
    assert s["min"] == s["max"] == s["median"] == s["p99"] == 7.0
    assert s["std"] == 0.0
    # a tail percentile needs a tail: below 4 samples p999 is just the
    # max wearing a misleading label
    assert s["p999"] is None


def test_summarize_small_n_has_no_p999():
    assert summarize([1.0, 2.0, 3.0])["p999"] is None
    assert summarize([1.0, 2.0, 3.0, 4.0])["p999"] is not None
