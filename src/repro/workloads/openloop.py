"""Open-loop workload engine with aggregated flow generators.

Closed-loop load (:mod:`repro.workloads.closed`) models a *closed*
system: a fixed client population that waits for completions, so
offered load can never exceed what the system serves.  Real DFS front
ends face the opposite regime — millions of independent users whose
requests arrive regardless of how the backend is doing (open loop),
with Zipf-popular objects and heavy-tailed sizes.  This module
simulates such populations at full fidelity **without one coroutine
per user**:

Aggregation model
-----------------
Each virtual client ``c`` owns a deterministic arrival process whose
``k``-th random draw is the pure function ``u01(seed, c, k, tag)``
(:mod:`repro.workloads.streams` — no per-client RNG objects, no hidden
state).  A population of N clients is then driven by **one flow
generator per (client-host, class) bucket**, a chain of heap callbacks:
the bucket keeps a binary heap of ``(next_arrival, client)`` pairs and
repeatedly pops the earliest arrival, sleeps to its absolute timestamp,
stamps the request
with the virtual client id, and pushes the client's next arrival.
Scheduling is O(log N) per *request*, and set-up follows what the run
touches.  One vectorized pass (:func:`_first_arrival_blocks`) draws
every client's first arrival from whole arrays of draws, for every
arrival kind; the scalar stepper runs only after a client's first
arrival.  A client that stays idle for the whole run costs no heap slot
and no coroutine, so a million-user population runs at the speed of its
aggregate request rate.  The namespace is created up front, but each
capability ticket is signed on its host's first write to the object
(:func:`open_loop_write_load`), so untouched (host, object) pairs cost
no signature.

Exactness guarantee
-------------------
Because every draw is keyed by ``(seed, client, draw-counter)``, the
aggregated generator consumes exactly the numbers an explicit
one-coroutine-per-client engine would: :func:`run_open_loop` (heap
merge) and :func:`run_open_loop_reference` (explicit coroutines)
produce **byte-identical request schedules** — and therefore identical
completions — for any spec; ``tests/test_openloop.py`` proves it at
N ∈ {1, 4, 32} for every arrival kind, at N = 400 for on/off, on sparse
populations and on two-class mixes.  Both engines sleep to absolute
times (``_call_at1(t)``, ``timeout_at(t)``), so no floating-point
re-accumulation can skew a wake-up, and
arrival timestamps are continuous draws, so cross-client ties (where
the two engines' heap tie-breaks could differ) occur with probability
zero.

Arrival processes (per client)
------------------------------
* ``poisson`` — exponential gaps at ``rate_hz``;
* ``onoff`` — alternating Pareto-distributed OFF and ON phases with
  Poisson arrivals at ``rate_hz`` inside ON phases; superposing many
  heavy-tailed on/off sources yields the classic self-similar/bursty
  aggregate (Willinger et al.);
* ``burst`` — synchronized fan-in: every ``burst_period_ns`` each
  client joins the burst with probability ``burst_join`` and fires at
  a jittered offset inside it (the incast regime).
"""

from __future__ import annotations

import hashlib
import math
import struct
from bisect import bisect_right
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappushpop
from itertools import repeat
from numbers import Integral, Real
from typing import (
    Any, Callable, Dict, Generator, Iterable, Iterator, List, Optional, Tuple,
)

import numpy as np

from ..faults import check_probability
from ..simnet.engine import Event
from .streams import (
    TAG_CLASS,
    TAG_GAP,
    TAG_OBJ,
    TAG_SIZE,
    TAG_STATE,
    client_key,
    exp_gap,
    lognormal,
    pareto,
    u01,
    u01_array,
    u01_keyed,
)
from .window import Rates, WindowStats, finish

__all__ = [
    "ArrivalSpec",
    "PopularitySpec",
    "SizeSpec",
    "WorkloadClass",
    "OpenLoopSpec",
    "OpenLoopResult",
    "ZipfSampler",
    "sample_size",
    "run_open_loop",
    "run_open_loop_reference",
    "build_namespace",
    "open_loop_write_load",
]


# ------------------------------------------------------------------ specs
def _check_positive(name: str, value: float, zero_ok: bool = False) -> None:
    """Reject a value that is not a finite number > 0 (>= 0 when
    ``zero_ok``), naming the field."""
    if not (isinstance(value, Real) and math.isfinite(value)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if value < 0.0 or (value == 0.0 and not zero_ok):
        raise ValueError(f"{name} must be {'>=' if zero_ok else '>'} 0, got {value!r}")


def _check_int(name: str, value: int, lo: int) -> None:
    if isinstance(value, bool) or not isinstance(value, Integral) or value < lo:
        raise ValueError(f"{name} must be an integer >= {lo}, got {value!r}")


@dataclass(frozen=True)
class ArrivalSpec:
    """Per-client arrival process parameters."""

    kind: str = "poisson"              # poisson | onoff | burst
    #: mean request rate per client in requests per simulated second
    #: (poisson: always; onoff: rate *inside* ON phases)
    rate_hz: float = 100.0
    # --- onoff (self-similar superposition) ---
    on_alpha: float = 1.5              # Pareto tail of ON durations
    on_min_ns: float = 50_000.0        # minimum ON duration
    off_alpha: float = 1.5             # Pareto tail of OFF durations
    off_min_ns: float = 100_000.0      # minimum OFF duration
    # --- burst (synchronized incast) ---
    burst_period_ns: float = 200_000.0
    burst_jitter_ns: float = 20_000.0  # must stay > 0: distinct stamps
    burst_join: float = 0.5            # P(client joins a given burst)

    def validate(self) -> None:
        if self.kind not in ("poisson", "onoff", "burst"):
            raise ValueError(f"unknown arrival kind {self.kind!r}")
        _check_positive("rate_hz", self.rate_hz)
        if self.kind == "burst":
            # zero jitter would stamp whole bursts at one timestamp and
            # void the tie-free exactness guarantee (module docstring)
            _check_positive("burst_jitter_ns", self.burst_jitter_ns)
            _check_positive("burst_period_ns", self.burst_period_ns)
            check_probability("burst_join", self.burst_join)
        if self.kind == "onoff":
            for name in ("on_alpha", "on_min_ns", "off_alpha", "off_min_ns"):
                _check_positive(name, getattr(self, name))


@dataclass(frozen=True)
class PopularitySpec:
    """Zipf(alpha) popularity over a synthetic namespace of objects.

    Object index equals popularity rank (0 = hottest); ``alpha = 0``
    degenerates to uniform popularity.
    """

    n_objects: int = 256
    alpha: float = 1.0

    def validate(self) -> None:
        _check_int("n_objects", self.n_objects, 1)
        _check_positive("zipf alpha", self.alpha, zero_ok=True)


@dataclass(frozen=True)
class SizeSpec:
    """Request-size distribution (bytes), clamped and quantized."""

    dist: str = "fixed"                # fixed | lognormal | pareto
    fixed_bytes: int = 8 * 1024
    median_bytes: float = 8 * 1024.0   # lognormal median
    sigma: float = 0.7                 # lognormal shape
    alpha: float = 1.3                 # pareto tail
    min_bytes: int = 1024
    max_bytes: int = 64 * 1024
    quantum: int = 512                 # sizes round down to this grain

    def validate(self) -> None:
        if self.dist not in ("fixed", "lognormal", "pareto"):
            raise ValueError(f"unknown size dist {self.dist!r}")
        for name in ("fixed_bytes", "min_bytes", "max_bytes", "quantum"):
            _check_int(name, getattr(self, name), 1)
        if self.min_bytes > self.max_bytes:
            raise ValueError("need 0 < min_bytes <= max_bytes")
        if self.dist == "lognormal":
            _check_positive("median_bytes", self.median_bytes)
            _check_positive("sigma", self.sigma, zero_ok=True)
        if self.dist == "pareto":
            _check_positive("size alpha", self.alpha)


@dataclass(frozen=True)
class WorkloadClass:
    """A sub-population with its own arrival/size behaviour.

    ``fraction`` of the population (assigned per client by a seeded
    class draw) follows this class; unset arrival/size fall back to the
    spec-level defaults.
    """

    name: str
    fraction: float
    arrival: Optional[ArrivalSpec] = None
    size: Optional[SizeSpec] = None


@dataclass(frozen=True)
class OpenLoopSpec:
    """Parameters of one open-loop run."""

    n_users: int = 1000
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    popularity: PopularitySpec = field(default_factory=PopularitySpec)
    size: SizeSpec = field(default_factory=SizeSpec)
    classes: Tuple[WorkloadClass, ...] = ()
    warmup_ns: float = 0.0
    measure_ns: float = 1_000_000.0
    seed: int = 1

    @property
    def horizon_ns(self) -> float:
        return self.warmup_ns + self.measure_ns

    def validate(self) -> None:
        _check_int("n_users", self.n_users, 1)
        _check_int("seed", self.seed, 0)
        _check_positive("measure_ns", self.measure_ns)
        _check_positive("warmup_ns", self.warmup_ns, zero_ok=True)
        self.arrival.validate()
        self.popularity.validate()
        self.size.validate()
        total = sum(c.fraction for c in self.classes)
        if self.classes and not (0.0 < total <= 1.0 + 1e-9):
            raise ValueError("class fractions must sum into (0, 1]")
        for c in self.classes:
            _check_positive(f"class {c.name!r} fraction", c.fraction, zero_ok=True)
            if c.arrival is not None:
                c.arrival.validate()
            if c.size is not None:
                c.size.validate()


# --------------------------------------------------------------- samplers
class ZipfSampler:
    """Inverse-CDF Zipf(alpha) sampler over ranks ``0..n-1``.

    One uniform per draw; ``bisect`` over the precomputed cumulative
    mass keeps the per-request cost at ~O(log n) python-free work.
    """

    def __init__(self, n_objects: int, alpha: float) -> None:
        self.n_objects = n_objects
        self.alpha = alpha
        weights = [(i + 1) ** (-alpha) for i in range(n_objects)]
        total = sum(weights)
        cum: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w
            cum.append(acc / total)
        cum[-1] = 1.0  # guard float drift: u < 1 always lands in range
        self.cum = cum
        self.mass = [w / total for w in weights]

    def pick(self, u: float) -> int:
        return bisect_right(self.cum, u)


def sample_size(u: float, s: SizeSpec) -> int:
    """One size draw in bytes: distribution -> clamp -> quantize."""
    if s.dist == "fixed":
        return s.fixed_bytes
    if s.dist == "lognormal":
        raw = lognormal(u, s.median_bytes, s.sigma)
    else:  # pareto
        raw = pareto(u, s.alpha, float(s.min_bytes))
    raw = min(max(raw, float(s.min_bytes)), float(s.max_bytes))
    q = int(raw) // s.quantum * s.quantum
    return max(q, s.min_bytes)


# ------------------------------------------------------- arrival steppers
def _make_stepper(
    a: ArrivalSpec, seed: int, horizon_ns: float
) -> Tuple[Any, Callable[..., Tuple[float, Any]]]:
    """Build ``(init_state, step)`` for one arrival class.

    ``step(cid, t_prev, st) -> (t_next, st')`` is a pure function of its
    arguments — the shared core both engines consume, and the reason
    their schedules are byte-identical.  ``t_next`` may exceed the
    horizon, which both engines treat as "this client is done".
    """
    rate = a.rate_hz
    if a.kind == "poisson":
        def step(cid: int, t_prev: float, k: int) -> Tuple[float, int]:
            return t_prev + exp_gap(u01(seed, cid, k, TAG_GAP), rate), k + 1

        return 0, step

    if a.kind == "onoff":
        on_alpha, on_min = a.on_alpha, a.on_min_ns
        off_alpha, off_min = a.off_alpha, a.off_min_ns

        # state: (k, on_end); on_end < 0 means "currently OFF"
        def step(
            cid: int, t_prev: float, st: Tuple[int, float]
        ) -> Tuple[float, Tuple[int, float]]:
            k, on_end = st
            t = t_prev
            key = client_key(seed, cid)  # one step draws several numbers
            while True:
                if on_end < 0.0:  # draw OFF gap, then a fresh ON window
                    t += pareto(u01_keyed(key, k, TAG_STATE), off_alpha, off_min)
                    k += 1
                    on_end = t + pareto(u01_keyed(key, k, TAG_STATE),
                                        on_alpha, on_min)
                    k += 1
                gap = exp_gap(u01_keyed(key, k, TAG_GAP), rate)
                k += 1
                if t + gap <= on_end:
                    return t + gap, (k, on_end)
                t = on_end        # ON phase exhausted without an arrival
                on_end = -1.0
                if t > horizon_ns:
                    return t, (k, on_end)  # past the end: caller stops

        return (0, -1.0), step

    # burst: state is the next burst index to consider
    period, jitter, join = a.burst_period_ns, a.burst_jitter_ns, a.burst_join
    last_burst = int(horizon_ns / period) + 1

    def step(cid: int, t_prev: float, b: int) -> Tuple[float, int]:
        key = client_key(seed, cid)  # one step may skip many bursts
        while b <= last_burst:
            if u01_keyed(key, b, TAG_GAP) < join:
                t = b * period + u01_keyed(key, b, TAG_STATE) * jitter
                return t, b + 1
            b += 1
        return float("inf"), b

    return 0, step


def _class_tables(
    spec: OpenLoopSpec,
) -> Tuple[List[str], List[float], List[ArrivalSpec], List[SizeSpec]]:
    """Resolve the class list: ``(names, fractions_cum, arrivals, sizes)``.
    A spec without classes is one implicit class covering everyone."""
    if not spec.classes:
        return ["all"], [1.0], [spec.arrival], [spec.size]
    names, cum, arrivals, sizes = [], [], [], []
    acc = 0.0
    for c in spec.classes:
        acc += c.fraction
        names.append(c.name)
        cum.append(acc)
        arrivals.append(c.arrival or spec.arrival)
        sizes.append(c.size or spec.size)
    cum[-1] = max(cum[-1], 1.0)  # absorb float remainder into the last class
    return names, cum, arrivals, sizes


def _class_of(seed: int, cid: int, cum: List[float]) -> int:
    if len(cum) == 1:
        return 0
    return bisect_right(cum, u01(seed, cid, 0, TAG_CLASS))


#: clients per vectorized block of the first-arrival pass: bounds the
#: numpy temporaries (a few MB) whatever the population
_CHUNK = 1 << 16

#: one first-arrival block: ``(cls, cids, times, states)``
_Block = Tuple[int, List[int], List[float], Iterable[Any]]


def _onoff_first(
    a: ArrivalSpec, seed: int, horizon: float, cls: int, cids: np.ndarray
) -> Iterator[_Block]:
    """First arrivals of on/off clients, all of them in lockstep.

    Every client starts OFF at draw 0, and each OFF+ON cycle ``i`` that
    ends without an arrival uses draws ``3i`` (OFF), ``3i+1`` (ON) and
    ``3i+2`` (gap): the clients still waiting share ``k``, so one
    :func:`u01_array` call per draw serves them all.  The float steps
    are the stepper's, in its order.  A client whose ON phase ends at or
    past the horizon drops out: every later arrival comes no earlier.
    """
    rate = a.rate_hz
    on_alpha, on_min = a.on_alpha, a.on_min_ns
    off_alpha, off_min = a.off_alpha, a.off_min_ns
    live, start = cids, [0.0] * len(cids)
    k = 0
    while len(live):
        offs = u01_array(seed, live, k, TAG_STATE).tolist()
        ons = u01_array(seed, live, k + 1, TAG_STATE).tolist()
        gaps = u01_array(seed, live, k + 2, TAG_GAP).tolist()
        k += 3
        done, times, states, wait, ends = [], [], [], [], []
        for j, t in enumerate(start):
            t += pareto(offs[j], off_alpha, off_min)
            on_end = t + pareto(ons[j], on_alpha, on_min)
            t_arr = t + exp_gap(gaps[j], rate)
            if t_arr <= on_end:
                done.append(j)
                times.append(t_arr)
                states.append((k, on_end))
            elif on_end < horizon:
                wait.append(j)
                ends.append(on_end)
        yield cls, live[done].tolist(), times, states
        live, start = live[wait], ends


def _first_arrival_blocks(spec: OpenLoopSpec) -> Iterator[_Block]:
    """Yield ``(cls, cids, times, states)``: clients of class ``cls``
    whose first arrival *may* come before the horizon, each with that
    arrival's time and the stepper state to continue from; the caller
    keeps those with ``t < horizon``.

    The draws come from :func:`u01_array`, whole blocks of clients at a
    time; the transforms stay the scalar ``exp_gap``/``pareto`` on
    ``.tolist()`` values (``np.log`` and ``math.log`` disagree in the
    last bit on some draws), so every time and state is bit-identical
    to what ``step(cid, 0.0, init)`` returns, and ``step`` itself runs
    only after a client's first arrival:

    * ``poisson`` — the first gap is ``-log(u)/rate`` with ``u`` draw 0,
      so ``t < horizon`` needs ``u > exp(-horizon*rate)``: that filter,
      lowered by a relative 1e-9 (far above the rounding error), skips
      the ``log`` of most draws of a sparse population;
    * ``burst`` — a client's first arrival lies in the first burst it
      joins: scan the bursts that start before the horizon over the
      shrinking set of clients that have joined none yet;
    * ``onoff`` — :func:`_onoff_first`.
    """
    seed, horizon = spec.seed, spec.horizon_ns
    _, class_cum, arrivals, _ = _class_tables(spec)
    cum = np.asarray(class_cum)
    for lo in range(0, spec.n_users, _CHUNK):
        cids = np.arange(lo, min(lo + _CHUNK, spec.n_users), dtype=np.uint64)
        if len(arrivals) > 1:
            of_cls = np.searchsorted(
                cum, u01_array(seed, cids, 0, TAG_CLASS), side="right")
        for cls, a in enumerate(arrivals):
            members = cids if len(arrivals) == 1 else cids[of_cls == cls]
            if a.kind == "poisson":
                rate = a.rate_hz
                u = u01_array(seed, members, 0, TAG_GAP)
                near = u > math.exp(-horizon * rate / 1e9) * (1.0 - 1e-9)
                yield (cls, members[near].tolist(),
                       [exp_gap(x, rate) for x in u[near].tolist()], repeat(1))
            elif a.kind == "burst":
                period, jitter = a.burst_period_ns, a.burst_jitter_ns
                b = 0
                while len(members) and b * period < horizon:
                    joined = u01_array(seed, members, b, TAG_GAP) < a.burst_join
                    at, first = b * period, members[joined]
                    jit = u01_array(seed, first, b, TAG_STATE).tolist()
                    yield (cls, first.tolist(), [at + x * jitter for x in jit],
                           repeat(b + 1))
                    members = members[~joined]
                    b += 1
            else:
                yield from _onoff_first(a, seed, horizon, cls, members)


# ---------------------------------------------------------------- results
_REQ_PACK = struct.Struct("<dqqqq")
_OUT_PACK = struct.Struct("<qqd?")
_MASK64 = (1 << 64) - 1


@dataclass
class OpenLoopResult(Rates):
    """Statistics of one open-loop run.

    ``ops``/``failures``/``bytes``/``latency`` count operations
    *completing* inside the measurement window (``failures_total``
    counts failed completions anywhere in the run — under a fault
    campaign, timeout nacks often straggle past the window); ``issued`` counts every
    request the generators stamped (the open-loop schedule is
    completion-independent).  ``quiesced``: every request completed and
    :meth:`~repro.dfs.cluster.Testbed.drain` reached
    :meth:`~repro.dfs.cluster.Testbed.idle`.  ``schedule_digest`` is the
    SHA-256 of the full ``(t, client, req, object, size)`` request stream — two runs
    (or two engines) agree on it iff their schedules are byte-identical.
    ``outcome_digest`` covers what the schedule digest cannot see: the
    sum mod 2^64 of a 64-bit hash of ``(client, req, completion instant,
    ok)`` over every completed request.  A sum does not depend on the
    order of same-instant completions and needs no per-request memory.
    """

    spec: OpenLoopSpec
    issued: int
    ops: int
    failures: int
    failures_total: int
    bytes: int
    latency: dict
    inflight_peak: int
    active_users: int
    schedule_digest: str
    outcome_digest: str
    obj_counts: Dict[int, int]
    quiesced: bool
    phase_latency: Optional[Dict[str, dict]] = None
    schedule: Optional[List[tuple]] = None

    @property
    def measure_ns(self) -> float:
        return self.spec.measure_ns

    @property
    def offered_kops_per_s(self) -> float:
        h = self.spec.horizon_ns
        return self.issued / h * 1e6 if h else 0.0


# ---------------------------------------------------------------- engines
class _Run:
    """Shared per-run machinery of both engines: request stamping,
    completion accounting, drain, and the result assembly."""

    def __init__(self, testbed: Any, issue: Callable[[int, int, int, int], Event],
                 spec: OpenLoopSpec, record: bool) -> None:
        spec.validate()
        self.testbed = testbed
        self.issue = issue
        self.spec = spec
        self.sim = testbed.sim
        self.t0 = self.sim.now
        self.window = WindowStats(
            self.t0 + spec.warmup_ns, self.t0 + spec.horizon_ns, spec.measure_ns
        )
        self.zipf = ZipfSampler(spec.popularity.n_objects, spec.popularity.alpha)
        names, cum, arrivals, sizes = _class_tables(spec)
        self.class_names = names
        self.class_cum = cum
        self.class_sizes = sizes
        self.steppers = [
            _make_stepper(a, spec.seed, spec.horizon_ns) for a in arrivals
        ]
        self.reqno = [0] * spec.n_users
        self.failures_total = 0
        self.inflight = 0
        self.inflight_peak = 0
        self.obj_counts: Dict[int, int] = {}
        self.digest = hashlib.sha256()
        self.outcome_sum = 0
        self.schedule: Optional[List[tuple]] = [] if record else None
        tel = self.sim.telemetry
        # one resolved handle, sampled on every level change (SIM401)
        self._gauge = (
            tel.metrics.gauge("workload.openloop.inflight") if tel.enabled else None
        )

    # ---------------------------------------------------------- hot path
    def issue_one(self, cid: int, t: float, cls: int) -> None:
        n = self.reqno[cid]
        self.reqno[cid] = n + 1
        key = client_key(self.spec.seed, cid)  # two draws, one key
        obj = self.zipf.pick(u01_keyed(key, n, TAG_OBJ))
        size = sample_size(u01_keyed(key, n, TAG_SIZE), self.class_sizes[cls])
        rel_t = t - self.t0
        self.digest.update(_REQ_PACK.pack(rel_t, cid, n, obj, size))
        if self.schedule is not None:
            self.schedule.append((rel_t, cid, n, obj, size))
        self.window.issued += 1
        self.obj_counts[obj] = self.obj_counts.get(obj, 0) + 1
        self.inflight += 1
        if self.inflight > self.inflight_peak:
            self.inflight_peak = self.inflight
        if self._gauge is not None:
            self._gauge.set(self.sim.now, float(self.inflight))
        ev = self.issue(cid, n, obj, size)
        ev.add_callback(lambda e, _c=cid, _n=n, _size=size: self._done(e, _c, _n, _size))

    def _done(self, ev: Event, cid: int, n: int, size: int) -> None:
        self.inflight -= 1
        now = self.sim.now
        if self._gauge is not None:
            self._gauge.set(now, float(self.inflight))
        ok = self.window.record(now, ev.value, size)
        if not ok:
            self.failures_total += 1
        self.outcome_sum = (self.outcome_sum + int.from_bytes(
            hashlib.blake2b(_OUT_PACK.pack(cid, n, now, ok), digest_size=8).digest(),
            "little",
        )) & _MASK64

    # ------------------------------------------------------------- finish
    def finish(self, procs: List) -> OpenLoopResult:
        # generators stop at the horizon, but completions may straggle
        # (retransmission backoff under faults): finish() drains them
        win = self.window
        _, idle, latency, phase_latency = finish(self.testbed, procs, [win])
        return OpenLoopResult(
            spec=self.spec,
            issued=win.issued,
            ops=win.ops,
            failures=win.failures,
            failures_total=self.failures_total,
            bytes=win.bytes,
            latency=latency,
            inflight_peak=self.inflight_peak,
            active_users=sum(1 for n in self.reqno if n),
            schedule_digest=self.digest.hexdigest(),
            outcome_digest=f"{self.outcome_sum:016x}",
            obj_counts=self.obj_counts,
            quiesced=idle and self.inflight == 0,
            phase_latency=phase_latency,
            schedule=self.schedule,
        )


def _first_arrivals(
    spec: OpenLoopSpec, k_buckets: int,
) -> Tuple[Dict[Tuple[int, int], List[Tuple[float, int]]], List[Any]]:
    """First arrivals bucketed by ``(cid % k_buckets, class)``, plus the
    per-client stepper states (``None`` for a client that never enters
    a heap: its first arrival lies at or beyond the horizon)."""
    horizon = spec.horizon_ns
    states: List[Any] = [None] * spec.n_users
    heaps: Dict[Tuple[int, int], List[Tuple[float, int]]] = {}
    for cls, cids, times, sts in _first_arrival_blocks(spec):
        for cid, t, st in zip(cids, times, sts):
            if t < horizon:
                states[cid] = st
                heaps.setdefault((cid % k_buckets, cls), []).append((t, cid))
    return heaps, states


class _FlowGenerator:
    """One (bucket, class) flow generator as heap callbacks.

    ``start`` is pushed at construction, as a process's first step is;
    each arrival is one ``_call_at1`` at its absolute instant, as the
    reference engine's processes sleep on ``timeout_at``.  An arrival
    stamps the request, steps that client's stream and pops the next
    arrival; ``done`` fires, quietly unless joined, once the heap runs
    dry.  ``strand`` (``openloop.b<b>.<class>``) names the chain for
    simsan.
    """

    __slots__ = ("run", "heap", "cls", "step", "states", "horizon", "strand", "done")

    def __init__(self, run: _Run, heap: List[Tuple[float, int]], cls: int,
                 states: List[Any], strand: str) -> None:
        self.run = run
        self.heap = heap
        self.cls = cls
        self.step = run.steppers[cls][1]
        self.states = states
        self.horizon = run.spec.horizon_ns
        self.strand = strand
        sim = run.sim
        self.done = Event(sim, strand)
        sim._call_soon1(self.start, None)

    def start(self, _) -> None:
        heap = self.heap
        heapify(heap)
        self._sleep(heappop(heap))

    def _sleep(self, nxt: Tuple[float, int]) -> None:
        run = self.run
        run.sim._call_at1(self.arrive, nxt, run.t0 + nxt[0])

    def arrive(self, item: Tuple[float, int]) -> None:
        t, cid = item
        run = self.run
        run.issue_one(cid, run.t0 + t, self.cls)
        states = self.states
        t2, st2 = self.step(cid, t, states[cid])
        heap = self.heap
        if t2 < self.horizon:
            states[cid] = st2
            # (time, client) keys are unique: push-then-pop order is exact
            self._sleep(heappushpop(heap, (t2, cid)))
        elif heap:
            self._sleep(heappop(heap))
        else:
            self.done.succeed_quiet(None)


def run_open_loop(
    testbed,
    issue: Callable[[int, int, int, int], Event],
    spec: OpenLoopSpec,
    record: bool = False,
) -> OpenLoopResult:
    """Drive an open-loop population with aggregated flow generators.

    ``issue(client, req_index, object_index, size_bytes)`` posts one
    operation and returns its completion event.  One flow generator (a
    :class:`_FlowGenerator` callback chain) runs per (bucket, class) pair
    — one bucket per client host, bucket ``b`` owning clients with
    ``cid % n_hosts == b`` — and each generator heap-merges its clients'
    arrival streams.
    """
    run = _Run(testbed, issue, spec, record)
    k_buckets = min(max(len(getattr(testbed, "clients", ())), 1), spec.n_users)
    heaps, states = _first_arrivals(spec, k_buckets)
    gens = [
        _FlowGenerator(run, heap, c, states, f"openloop.b{b}.{run.class_names[c]}")
        for (b, c), heap in sorted(heaps.items())
    ]
    return run.finish([g.done for g in gens])


def run_open_loop_reference(
    testbed,
    issue: Callable[[int, int, int, int], Event],
    spec: OpenLoopSpec,
    record: bool = False,
) -> OpenLoopResult:
    """Explicit one-coroutine-per-client reference engine.

    Consumes exactly the same draw streams as :func:`run_open_loop`;
    exists to prove the aggregation exact (and to show why it is
    needed — N coroutines of engine overhead for the same schedule).
    Keep populations small here.
    """
    run = _Run(testbed, issue, spec, record)
    sim = run.sim
    horizon = spec.horizon_ns
    t0 = run.t0

    def _client(cid: int) -> Generator:
        cls = _class_of(spec.seed, cid, run.class_cum)
        init, step = run.steppers[cls]
        t, st = step(cid, 0.0, init)
        while t < horizon:
            yield sim.timeout_at(t0 + t)
            run.issue_one(cid, t0 + t, cls)
            t, st = step(cid, t, st)

    procs = [
        sim.process(_client(cid), name=f"openloop.c{cid}")
        for cid in range(spec.n_users)
    ]
    return run.finish(procs)


# ------------------------------------------------------------ DFS driver
def build_namespace(
    testbed,
    n_objects: int,
    obj_bytes: int,
    replication=None,
    ec=None,
    pin_top: int = 0,
    pin_node: Optional[str] = None,
) -> Tuple[list, List[str], List[str]]:
    """Create the open loop's namespace before its first event.

    Object ``i`` (its popularity rank) is ``/ol/i``; the ``pin_top``
    hottest are pinned onto ``pin_node`` (the hot-shard scenario), the
    rest placed by the metadata service's policy.  Every object is
    created here, in rank order, because placement depends on that
    order.  The endpoints, one per client host, open nothing: a
    capability ticket depends only on the signing key, the client id
    and the object id, so :func:`open_loop_write_load` signs it on the
    host's first write to the object, the same bytes at a cost that
    follows the (host, object) pairs the run writes.  Returns the
    endpoints, the paths by rank and each object's primary node.
    """
    from ..dfs.client import DfsClient

    endpoints = [
        DfsClient(testbed, client_index=h, principal=f"open{h}")
        for h in range(len(testbed.clients))
    ]
    md = testbed.metadata
    paths: List[str] = []
    obj_node: List[str] = []
    for i in range(n_objects):
        path = f"/ol/{i}"
        pin = None
        if pin_node is not None and i < pin_top:
            k = replication.k if replication is not None else 1
            others = [n for n in md.nodes if n != pin_node]
            pin = [pin_node] + others[: k - 1]
        layout = md.create(path, size=obj_bytes, replication=replication,
                           ec=ec, pin_nodes=pin)
        obj_node.append(layout.extents[0].node)
        paths.append(path)
    return endpoints, paths, obj_node


def open_loop_write_load(
    testbed,
    spec: OpenLoopSpec,
    protocol: str,
    replication=None,
    ec=None,
    object_bytes: Optional[int] = None,
    pin_top: int = 0,
    pin_node: Optional[str] = None,
    engine: str = "aggregated",
    record: bool = False,
    **write_kw,
) -> Tuple[OpenLoopResult, Dict[str, int]]:
    """Open-loop write load over a synthetic Zipf namespace.

    Creates ``popularity.n_objects`` objects (index = popularity rank),
    optionally pinning the ``pin_top`` hottest onto ``pin_node`` (the
    hot-shard scenario), and drives sampled-size writes from a pool of
    per-host endpoints.  Returns the run result plus the per-storage-node
    request tally (by each object's primary extent).
    """
    from .closed import payload_bytes

    spec.validate()
    # the largest size any class can draw bounds both the object extent
    # and the shared payload buffer
    size_specs = [c.size or spec.size for c in spec.classes] or [spec.size]
    max_req = max(
        s.fixed_bytes if s.dist == "fixed" else s.max_bytes for s in size_specs
    )
    obj_bytes = object_bytes or max_req
    endpoints, paths, obj_node = build_namespace(
        testbed, spec.popularity.n_objects, obj_bytes, replication=replication,
        ec=ec, pin_top=pin_top, pin_node=pin_node,
    )
    n_hosts = len(endpoints)
    payload = payload_bytes(max_req, seed=spec.seed)
    opened: List[set] = [set() for _ in endpoints]

    def issue(cid: int, n: int, obj: int, size: int) -> Event:
        h = cid % n_hosts
        ep = endpoints[h]
        if obj not in opened[h]:  # the host's first write: sign its ticket
            opened[h].add(obj)
            ep.open(paths[obj])
        return ep.write(paths[obj], payload[:size], protocol=protocol, **write_kw)

    runner = run_open_loop if engine == "aggregated" else run_open_loop_reference
    if engine not in ("aggregated", "explicit"):
        raise ValueError(f"unknown engine {engine!r}")
    res = runner(testbed, issue, spec, record=record)
    node_counts: Dict[str, int] = {}
    for obj, cnt in res.obj_counts.items():
        node = obj_node[obj]
        node_counts[node] = node_counts.get(node, 0) + cnt
    return res, node_counts
