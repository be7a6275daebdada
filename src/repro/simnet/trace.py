"""Distribution statistics for latency samples: :func:`percentile` and
:func:`summarize`."""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["summarize", "percentile"]


def percentile(sorted_samples: List[float], p: float) -> float:
    """Linear-interpolation percentile (numpy's default method) over an
    already-sorted sample list; ``p`` in [0, 1]."""
    n = len(sorted_samples)
    if n == 0:
        return 0.0
    if n == 1:
        return sorted_samples[0]
    rank = p * (n - 1)
    lo = int(rank)
    hi = min(lo + 1, n - 1)
    frac = rank - lo
    return sorted_samples[lo] * (1.0 - frac) + sorted_samples[hi] * frac


def summarize(samples: List[float]) -> Dict[str, Optional[float]]:
    """Distribution summary for a list of durations.

    Percentiles use linear interpolation between order statistics (the
    nearest-rank rule previously used here collapses every tail
    percentile onto the max for small n).  ``std`` is the population
    standard deviation.

    Statistics that would mislead are ``None`` rather than a number:
    every stat of an *empty* population (a 0.0 "latency" from zero
    samples reads as an excellent result), and the ``p999`` of fewer
    than 4 samples (it is just the max wearing a tail-percentile
    label).  Renderers print them as ``-``.
    """
    keys = ("min", "mean", "median", "p50", "p90", "p99", "p999", "max", "std")
    if not samples:
        out: Dict[str, Optional[float]] = {k: None for k in keys}
        out["n"] = 0
        return out
    s = sorted(samples)
    n = len(s)
    mean = sum(s) / n
    var = sum((x - mean) ** 2 for x in s) / n
    p50 = percentile(s, 0.5)
    return {
        "n": n,
        "min": s[0],
        "mean": mean,
        "median": p50,
        "p50": p50,
        "p90": percentile(s, 0.90),
        "p99": percentile(s, 0.99),
        "p999": percentile(s, 0.999) if n >= 4 else None,
        "max": s[-1],
        "std": var**0.5,
    }
