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
state).  A population of N clients is then driven by **one generator
process per (client-host, class) bucket**: the bucket keeps a binary
heap of ``(next_arrival, client)`` pairs and repeatedly pops the
earliest arrival, sleeps to its absolute timestamp, stamps the request
with the virtual client id, and pushes the client's next arrival.
Scheduling is O(log N) per *request*, and set-up is O(active clients):
one vectorized pass over the clients' first draws
(:func:`_first_arrival_candidates`) keeps only the clients whose first
arrival may fall before the horizon, and only those run the scalar
stepper.  A client that stays idle for the whole run costs no heap slot
and no coroutine, so a million-user population runs at the speed of its
aggregate request rate.

Exactness guarantee
-------------------
Because every draw is keyed by ``(seed, client, draw-counter)``, the
aggregated generator consumes exactly the numbers an explicit
one-coroutine-per-client engine would: :func:`run_open_loop` (heap
merge) and :func:`run_open_loop_reference` (explicit coroutines)
produce **byte-identical request schedules** — and therefore identical
completions — for any spec; ``tests/test_openloop.py`` proves it at
N ∈ {1, 4, 32} for every arrival kind, on sparse populations and on
two-class mixes.  Both engines sleep with ``timeout_at(t)`` (absolute
time), so no floating-point re-accumulation can skew a wake-up, and
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
from heapq import heapify, heappop, heappush
from itertools import repeat
from typing import Any, Callable, Dict, Generator, Iterator, List, Optional, Tuple

import numpy as np

from ..faults import check_probability
from ..simnet.engine import Event
from .streams import (
    TAG_CLASS,
    TAG_GAP,
    TAG_OBJ,
    TAG_SIZE,
    TAG_STATE,
    exp_gap,
    lognormal,
    pareto,
    u01,
    u01_array,
)

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
    "open_loop_write_load",
]


# ------------------------------------------------------------------ specs
def _check_positive(name: str, value: float) -> None:
    if not value > 0.0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


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
        if self.rate_hz <= 0.0:
            raise ValueError("arrival rate_hz must be positive")
        if self.kind == "burst":
            if self.burst_jitter_ns <= 0.0:
                # zero jitter would stamp whole bursts at one timestamp and
                # void the tie-free exactness guarantee (module docstring)
                raise ValueError("burst_jitter_ns must be > 0")
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
        if self.n_objects < 1:
            raise ValueError("need at least one object")
        if self.alpha < 0.0:
            raise ValueError("zipf alpha must be >= 0")


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
        if not (0 < self.min_bytes <= self.max_bytes):
            raise ValueError("need 0 < min_bytes <= max_bytes")
        if self.quantum < 1:
            raise ValueError("quantum must be >= 1")
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
        if self.n_users < 1:
            raise ValueError("need at least one user")
        if self.measure_ns <= 0.0:
            raise ValueError("measure_ns must be positive")
        if self.warmup_ns < 0.0:
            raise ValueError(f"warmup_ns must be >= 0, got {self.warmup_ns!r}")
        self.arrival.validate()
        self.popularity.validate()
        self.size.validate()
        total = sum(c.fraction for c in self.classes)
        if self.classes and not (0.0 < total <= 1.0 + 1e-9):
            raise ValueError("class fractions must sum into (0, 1]")
        for c in self.classes:
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
            while True:
                if on_end < 0.0:  # draw OFF gap, then a fresh ON window
                    t += pareto(u01(seed, cid, k, TAG_STATE), off_alpha, off_min)
                    k += 1
                    on_end = t + pareto(u01(seed, cid, k, TAG_STATE),
                                        on_alpha, on_min)
                    k += 1
                gap = exp_gap(u01(seed, cid, k, TAG_GAP), rate)
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
        while b <= last_burst:
            if u01(seed, cid, b, TAG_GAP) < join:
                t = b * period + u01(seed, cid, b, TAG_STATE) * jitter
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


def _first_arrival_candidates(
    spec: OpenLoopSpec,
) -> Iterator[Tuple[int, List[int], Optional[List[int]]]]:
    """Yield ``(cls, cids, starts)``: the clients of class ``cls`` whose
    first arrival *may* come before the horizon, each with the stepper
    state to start it from (``starts=None``: the stepper's initial state).

    The filter works on whole arrays of ``u01`` draws and never computes
    an arrival time (``np.log`` and ``math.log`` disagree in the last
    bit on some draws): the caller runs the scalar ``step`` from each
    start and applies the exact ``t < horizon`` test.  So the yielded
    set must be a superset of the clients that arrive in time:

    * ``poisson`` — the first gap is ``-log(u)/rate`` with ``u`` draw 0,
      so ``t < horizon`` needs ``u > exp(-horizon*rate)``; the threshold
      is lowered by a relative 1e-9, far above the rounding error;
    * ``burst`` — a client's first arrival lies in the first burst it
      joins: scan the bursts that start before the horizon over the
      shrinking set of clients that have joined none yet, start each
      client at its burst, and drop those that join none of them;
    * ``onoff`` — the first arrival follows a chain of Pareto phase
      draws: every client is a candidate.
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
                keep = math.exp(-horizon * a.rate_hz / 1e9) * (1.0 - 1e-9)
                members = members[u01_array(seed, members, 0, TAG_GAP) > keep]
                yield cls, members.tolist(), None
            elif a.kind == "burst":
                b = 0
                while len(members) and b * a.burst_period_ns < horizon:
                    joined = u01_array(seed, members, b, TAG_GAP) < a.burst_join
                    yield cls, members[joined].tolist(), [b] * int(joined.sum())
                    members = members[~joined]
                    b += 1
            else:
                yield cls, members.tolist(), None


# ---------------------------------------------------------------- results
_REQ_PACK = struct.Struct("<dqqqq")


@dataclass
class OpenLoopResult:
    """Statistics of one open-loop run.

    ``ops``/``failures``/``bytes``/``latency`` count operations
    *completing* inside the measurement window (``failures_total``
    counts failed completions anywhere in the run — under a fault
    campaign, timeout nacks often straggle past the window); ``issued`` counts every
    request the generators stamped (the open-loop schedule is
    completion-independent).  ``schedule_digest`` is the SHA-256 of the
    full ``(t, client, req, object, size)`` request stream — two runs
    (or two engines) agree on it iff their schedules are byte-identical.
    """

    spec: OpenLoopSpec
    issued: int
    ops: int
    failures: int
    failures_total: int
    bytes: int
    completed_total: int
    elapsed_ns: float
    latency: dict
    inflight_peak: int
    active_users: int
    schedule_digest: str
    obj_counts: Dict[int, int]
    quiesced: bool
    phase_latency: Optional[Dict[str, dict]] = None
    schedule: Optional[List[tuple]] = None

    @property
    def kops_per_s(self) -> float:
        return self.ops / self.spec.measure_ns * 1e6 if self.spec.measure_ns else 0.0

    @property
    def goodput_gbps(self) -> float:
        return self.bytes * 8.0 / self.spec.measure_ns if self.spec.measure_ns else 0.0

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
        self.t_warm = self.t0 + spec.warmup_ns
        self.t_stop = self.t0 + spec.horizon_ns
        self.zipf = ZipfSampler(spec.popularity.n_objects, spec.popularity.alpha)
        names, cum, arrivals, sizes = _class_tables(spec)
        self.class_names = names
        self.class_cum = cum
        self.class_sizes = sizes
        self.steppers = [
            _make_stepper(a, spec.seed, spec.horizon_ns) for a in arrivals
        ]
        self.reqno = [0] * spec.n_users
        self.issued = 0
        self.ops = 0
        self.failures = 0
        self.failures_total = 0
        self.bytes = 0
        self.completed_total = 0
        self.inflight = 0
        self.inflight_peak = 0
        self.latencies: List[float] = []
        self.obj_counts: Dict[int, int] = {}
        self.digest = hashlib.sha256()
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
        u_obj = u01(self.spec.seed, cid, n, TAG_OBJ)
        obj = self.zipf.pick(u_obj)
        u_size = u01(self.spec.seed, cid, n, TAG_SIZE)
        size = sample_size(u_size, self.class_sizes[cls])
        rel_t = t - self.t0
        self.digest.update(_REQ_PACK.pack(rel_t, cid, n, obj, size))
        if self.schedule is not None:
            self.schedule.append((rel_t, cid, n, obj, size))
        self.issued += 1
        self.obj_counts[obj] = self.obj_counts.get(obj, 0) + 1
        self.inflight += 1
        if self.inflight > self.inflight_peak:
            self.inflight_peak = self.inflight
        if self._gauge is not None:
            self._gauge.set(self.sim.now, float(self.inflight))
        ev = self.issue(cid, n, obj, size)
        ev.add_callback(lambda e, _size=size: self._done(e, _size))

    def _done(self, ev: Event, size: int) -> None:
        self.inflight -= 1
        if self._gauge is not None:
            self._gauge.set(self.sim.now, float(self.inflight))
        out = ev.value
        ok = getattr(out, "ok", True)
        self.completed_total += 1
        if not ok:
            self.failures_total += 1
        now = self.sim.now
        if self.t_warm <= now < self.t_stop:
            if not ok:
                self.failures += 1
                return
            self.ops += 1
            self.bytes += size
            lat = getattr(out, "latency_ns", None)
            if lat is not None:
                self.latencies.append(lat)

    # ------------------------------------------------------------- finish
    def finish(self, procs: List) -> OpenLoopResult:
        from ..simnet.trace import summarize

        sim = self.sim
        done = sim.all_of(procs)
        sim.run_until_event(done)
        # open loop: generators stop at the horizon, but completions may
        # straggle (retransmission backoff under faults) — drain bounded
        drained = self.inflight == 0
        for _ in range(5000):
            if drained:
                break
            self.testbed.run(until=sim.now + 200_000.0)
            drained = self.inflight == 0
        quiesced = drained and all(p.triggered for p in procs)

        phase_latency = None
        tel = sim.telemetry
        if tel.enabled:
            from ..telemetry.anatomy import decompose, phase_summary

            measured = [
                op for op in decompose(tel)
                if op.ok and self.t_warm <= op.t1 < self.t_stop
            ]
            if measured:
                phase_latency = phase_summary(measured)
        return OpenLoopResult(
            spec=self.spec,
            issued=self.issued,
            ops=self.ops,
            failures=self.failures,
            failures_total=self.failures_total,
            bytes=self.bytes,
            completed_total=self.completed_total,
            elapsed_ns=sim.now - self.t0,
            latency=summarize(self.latencies),
            inflight_peak=self.inflight_peak,
            active_users=sum(1 for n in self.reqno if n),
            schedule_digest=self.digest.hexdigest(),
            obj_counts=self.obj_counts,
            quiesced=quiesced,
            phase_latency=phase_latency,
            schedule=self.schedule,
        )


def _first_arrivals(
    spec: OpenLoopSpec, steppers: List[Tuple[Any, Callable]], k_buckets: int,
) -> Tuple[Dict[Tuple[int, int], List[Tuple[float, int]]], List[Any]]:
    """First arrivals bucketed by ``(cid % k_buckets, class)``, plus the
    per-client stepper states.  Only the candidates of
    :func:`_first_arrival_candidates` are stepped; a client whose first
    arrival lies at or beyond the horizon never enters a heap."""
    horizon = spec.horizon_ns
    states: List[Any] = [None] * spec.n_users
    heaps: Dict[Tuple[int, int], List[Tuple[float, int]]] = {}
    for cls, cids, starts in _first_arrival_candidates(spec):
        init, step = steppers[cls]
        for cid, start in zip(cids, repeat(init) if starts is None else starts):
            t, st = step(cid, 0.0, start)
            if t < horizon:
                states[cid] = st
                heaps.setdefault((cid % k_buckets, cls), []).append((t, cid))
    return heaps, states


def run_open_loop(
    testbed,
    issue: Callable[[int, int, int, int], Event],
    spec: OpenLoopSpec,
    n_buckets: Optional[int] = None,
    record: bool = False,
) -> OpenLoopResult:
    """Drive an open-loop population with aggregated flow generators.

    ``issue(client, req_index, object_index, size_bytes)`` posts one
    operation and returns its completion event.  One generator process
    runs per (bucket, class) pair — bucket ``b`` owns clients with
    ``cid % n_buckets == b`` (callers map buckets to client hosts), and
    each generator heap-merges its clients' arrival streams.
    """
    run = _Run(testbed, issue, spec, record)
    sim = run.sim
    k_buckets = n_buckets or max(len(getattr(testbed, "clients", [])) or 1, 1)
    k_buckets = min(k_buckets, spec.n_users)
    horizon = spec.horizon_ns
    t0 = run.t0
    heaps, states = _first_arrivals(spec, run.steppers, k_buckets)

    def _generator(heap: List[Tuple[float, int]], cls: int) -> Generator:
        step = run.steppers[cls][1]
        heapify(heap)
        while heap:
            t, cid = heappop(heap)
            yield sim.timeout_at(t0 + t)
            run.issue_one(cid, t0 + t, cls)
            t2, st2 = step(cid, t, states[cid])
            if t2 < horizon:
                states[cid] = st2
                heappush(heap, (t2, cid))

    procs = [
        sim.process(_generator(heap, c), name=f"openloop.b{b}.{run.class_names[c]}")
        for (b, c), heap in sorted(heaps.items())
    ]
    return run.finish(procs)


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
    from ..dfs.client import DfsClient
    from .closed import payload_bytes

    spec.validate()
    # the largest size any class can draw bounds both the object extent
    # and the shared payload buffer
    size_specs = [c.size or spec.size for c in spec.classes] or [spec.size]
    max_req = max(
        s.fixed_bytes if s.dist == "fixed" else s.max_bytes for s in size_specs
    )
    obj_bytes = object_bytes or max_req
    n_hosts = len(testbed.clients)
    endpoints = [
        DfsClient(testbed, client_index=h, principal=f"open{h}")
        for h in range(n_hosts)
    ]
    md = testbed.metadata
    paths: List[str] = []
    obj_node: List[str] = []
    for i in range(spec.popularity.n_objects):
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
        for ep in endpoints:
            ep.open(path)
    payload = payload_bytes(max_req, seed=spec.seed)

    def issue(cid: int, n: int, obj: int, size: int) -> Event:
        return endpoints[cid % n_hosts].write(
            paths[obj], payload[:size], protocol=protocol, **write_kw
        )

    runner = run_open_loop if engine == "aggregated" else run_open_loop_reference
    if engine not in ("aggregated", "explicit"):
        raise ValueError(f"unknown engine {engine!r}")
    res = runner(testbed, issue, spec, record=record)
    node_counts: Dict[str, int] = {}
    for obj, cnt in res.obj_counts.items():
        node = obj_node[obj]
        node_counts[node] = node_counts.get(node, 0) + cnt
    return res, node_counts
