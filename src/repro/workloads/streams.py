"""Counter-based deterministic random streams for huge populations.

The open-loop engine must hand out i.i.d. draws to up to a million
virtual clients without materialising a million ``numpy`` Generator
objects — and, crucially, the *aggregated* flow generator and the
*explicit* per-client reference implementation must consume exactly the
same numbers so their request schedules are byte-identical
(:mod:`repro.workloads.openloop`).

Both needs are met by a stateless counter-based construction: draw
``k`` of stream ``(seed, client, tag)`` is a pure function of its key,

    ``u = u01(seed, client, k, tag)``

computed with the SplitMix64 finalizer (Steele et al., *Fast Splittable
Pseudorandom Number Generators*, OOPSLA'14) over the mixed key words.
SplitMix64 is a bijective avalanche mix — every output bit depends on
every input bit — so structured keys (sequential client ids, sequential
counters) still yield decorrelated uniforms.  There is no hidden state:
any engine that agrees on the key derivation reproduces the stream in
any order, which is the exactness guarantee the aggregation relies on.

All uniforms land in the *open* interval (0, 1): the transforms below
take logs and reciprocals, and an exact 0.0 or 1.0 must be impossible.

:func:`u01_array` evaluates the same function for a whole array of
clients at once.  ``uint64`` arithmetic wraps modulo 2^64 exactly like
the masked Python ints, and the top 53 bits convert to ``float64``
exactly, so its draws are bit-identical to :func:`u01`'s; the scalar
form stays the reference.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

__all__ = [
    "u01",
    "u01_array",
    "exp_gap",
    "pareto",
    "lognormal",
    "TAG_GAP",
    "TAG_OBJ",
    "TAG_SIZE",
    "TAG_STATE",
    "TAG_CLASS",
]

#: draw-purpose tags: distinct tags give independent streams for the
#: same (seed, client, counter) triple
TAG_GAP = 0x67617000      # inter-arrival gap draws
TAG_OBJ = 0x6F626A00      # object-popularity draws
TAG_SIZE = 0x737A0000     # request-size draws
TAG_STATE = 0x73740000    # on/off state-duration draws
TAG_CLASS = 0x636C0000    # population-class assignment draws

_MASK = (1 << 64) - 1
#: golden-ratio increment of the SplitMix64 sequence
_GAMMA = 0x9E3779B97F4A7C15
_NORM = NormalDist()
_log = math.log
_exp = math.exp


def _mix(z: int) -> int:
    """SplitMix64 finalizer: a 64-bit bijection with full avalanche."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def u01(seed: int, client: int, k: int, tag: int) -> float:
    """Uniform draw in (0, 1) for draw ``k`` of stream ``(seed, client,
    tag)`` — stateless, order-independent, PYTHONHASHSEED-immune."""
    z = _mix((seed * _GAMMA + client) & _MASK)
    z = _mix((z + k * _GAMMA + tag) & _MASK)
    # map to (0, 1): use the top 53 bits, then nudge 0 to the smallest
    # representable draw so log()/reciprocal transforms never see 0
    return ((z >> 11) + 0.5) * (1.0 / (1 << 53))


def _mix_array(z: np.ndarray) -> np.ndarray:
    """:func:`_mix` over a ``uint64`` array (products wrap mod 2^64)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def u01_array(seed: int, clients: np.ndarray, k: int, tag: int) -> np.ndarray:
    """:func:`u01` for every client id in ``clients`` (draw ``k`` of each
    stream ``(seed, client, tag)``), as a ``float64`` array."""
    c = np.asarray(clients, dtype=np.uint64)
    z = _mix_array(c + np.uint64(seed * _GAMMA & _MASK))
    z = _mix_array(z + np.uint64((k * _GAMMA + tag) & _MASK))
    return ((z >> np.uint64(11)).astype(np.float64) + 0.5) * (1.0 / (1 << 53))


def exp_gap(u: float, rate_hz: float) -> float:
    """Exponential inter-arrival gap in **nanoseconds** for a Poisson
    process of ``rate_hz`` events per simulated second."""
    return -_log(u) / rate_hz * 1e9


def pareto(u: float, alpha: float, x_min: float) -> float:
    """Pareto(Type I) draw: ``x_min * u^(-1/alpha)`` — the heavy-tailed
    workhorse for object sizes and on/off burst durations."""
    return x_min * u ** (-1.0 / alpha)


def lognormal(u: float, median: float, sigma: float) -> float:
    """Lognormal draw via the inverse normal CDF: ``median *
    exp(sigma * z)`` with ``z = Phi^-1(u)``.  One uniform per draw keeps
    the per-client draw counters trivially aligned between engines."""
    return median * _exp(sigma * _NORM.inv_cdf(u))
