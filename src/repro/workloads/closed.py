"""Closed-system workload generators and measurement drivers.

Three measurement styles:

* **latency** — a single isolated write, reported request-to-response
  (Figs. 6, 9 left/center, 10, 15 left);
* **window-based goodput/bandwidth** — keep a window of operations in
  flight back to back and divide bytes by elapsed time (Fig. 9 right,
  Fig. 15 right; §VI-C(b): "common to window-based messaging
  benchmarks");
* **closed-loop load** — N independent clients, each with bounded
  outstanding operations and optional think time, measured over a fixed
  window after warm-up (:func:`run_closed_loop`).  This is the classic
  closed-system model: offered load is set by the client population, not
  an open arrival process, so the system can never be driven past
  saturation into unbounded queues.

The open-system counterpart — arrival processes decoupled from
completions, aggregated over huge client populations — lives in
:mod:`repro.workloads.openloop`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Generator, Iterable, List, Optional

import numpy as np

from ..dfs.client import DfsClient
from ..dfs.cluster import Testbed
from ..protocols.base import WriteOutcome
from ..simnet.engine import Event
from .window import Rates, WindowStats, finish, latency_summary

__all__ = [
    "measure_write_latency",
    "measure_goodput",
    "GoodputResult",
    "LoadSpec",
    "LoadResult",
    "run_closed_loop",
    "closed_loop_write_load",
    "optimal_chunk_size",
    "payload_bytes",
]


#: payload cache: (seed, size) -> frozen array.  Million-request load
#: runs used to rebuild a Generator and an array per request; the cache
#: turns repeat payloads into a dict hit.  Bounded so a sweep over many
#: distinct sizes cannot grow it without limit.
_PAYLOAD_CACHE: dict[tuple[int, int], np.ndarray] = {}
_PAYLOAD_CACHE_MAX = 128


def payload_bytes(size: int, seed: int = 0) -> np.ndarray:
    """Deterministic pseudo-random payload (content-checkable).

    Cached by ``(seed, size)`` and returned *read-only*: every caller
    treats payloads as immutable write sources, and the read-only flag
    turns any accidental in-place mutation (which would corrupt every
    later request sharing the buffer) into an immediate ``ValueError``.
    """
    key = (seed, size)
    arr = _PAYLOAD_CACHE.get(key)
    if arr is None:
        arr = np.random.default_rng(seed).integers(0, 256, size=size, dtype=np.uint8)
        arr.setflags(write=False)
        if len(_PAYLOAD_CACHE) >= _PAYLOAD_CACHE_MAX:
            _PAYLOAD_CACHE.clear()
        _PAYLOAD_CACHE[key] = arr
    return arr


def measure_write_latency(
    client: DfsClient,
    path: str,
    size: int,
    protocol: str,
    warmup: int = 1,
    repeats: int = 3,
    **kw,
) -> float:
    """Median latency of isolated writes (first write warms structures)."""
    data = payload_bytes(size)
    samples = []
    for i in range(warmup + repeats):
        out = client.write_sync(path, data, protocol=protocol, **kw)
        if not out.ok:
            raise RuntimeError(f"write failed: {out.nacks}")
        if i >= warmup:
            samples.append(out.latency_ns)
    samples.sort()
    return samples[len(samples) // 2]


@dataclass
class GoodputResult:
    bytes_completed: int
    elapsed_ns: float
    n_ops: int
    latency: dict                 # summarize() over every op's latency

    @property
    def goodput_gbps(self) -> float:
        return self.bytes_completed * 8.0 / self.elapsed_ns if self.elapsed_ns else 0.0


def measure_goodput(
    testbed: Testbed,
    issue: Callable[[int], Event],
    n_ops: int,
    op_bytes: int,
    window: int = 16,
) -> GoodputResult:
    """Window-based goodput: keep ``window`` operations in flight.

    ``issue(i)`` posts operation ``i`` and returns its completion event.
    Elapsed time runs from the first issue to the last completion; the
    result also carries the latency distribution of the operations
    (tail behaviour under contention: p99 vs median).
    """
    sim = testbed.sim
    t0 = sim.now
    # an unbounded window: every op counts; goodput is over elapsed time
    stats = WindowStats(t_warm=t0, t_stop=math.inf, measure_ns=0.0)
    in_flight: List[Event] = [issue(i) for i in range(min(window, n_ops))]
    issued = len(in_flight)
    while in_flight:
        # wait for the oldest op (FIFO window, deterministic)
        out = sim.run_until_event(in_flight.pop(0))
        if isinstance(out, WriteOutcome) and not out.ok:
            raise RuntimeError(f"write failed mid-window: {out.nacks}")
        stats.record(sim.now, out, op_bytes)
        if issued < n_ops:
            in_flight.append(issue(issued))
            issued += 1
    return GoodputResult(
        bytes_completed=stats.bytes,
        elapsed_ns=sim.now - t0,
        n_ops=n_ops,
        latency=latency_summary([stats]),
    )


# --------------------------------------------------------------------------
# Closed-loop multi-client load engine
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LoadSpec:
    """Parameters of a closed-loop load run.

    Each of ``n_clients`` logical clients keeps up to ``outstanding``
    operations in flight; after each completion it thinks for
    ``think_ns`` (exponentially distributed when ``think_jitter`` is
    set, fixed otherwise) before issuing the next.  Statistics count
    only operations *completing* inside the measurement window
    ``[warmup_ns, warmup_ns + measure_ns)``; everything in flight at the
    window's end is still drained so the run quiesces deterministically.
    """

    n_clients: int = 8
    outstanding: int = 1
    think_ns: float = 0.0
    think_jitter: bool = True
    warmup_ns: float = 50_000.0
    measure_ns: float = 1_000_000.0
    seed: int = 1
    #: tolerate failed operations instead of aborting the run — needed
    #: for fault-injection loads (recovery storms) where some writes
    #: land on crashed replicas; failures inside the measure window are
    #: counted separately and excluded from the latency statistics
    allow_failures: bool = False


@dataclass
class LoadResult(Rates):
    """Aggregate + per-client statistics of a closed-loop run."""

    spec: LoadSpec
    op_bytes: int
    ops: int                      # completions inside the measure window
    bytes: int
    issued: int                   # total issued, incl. warm-up/drain ops
    failures: int                 # failed ops in the measure window
    elapsed_ns: float             # first issue -> last worker done
    latency: dict                 # summarize() over measured latencies
    per_client: List[dict]
    quiesced: bool                # Testbed.drain() reached Testbed.idle()
    #: per-phase latency anatomy over the measured operations
    #: (:func:`repro.telemetry.phase_summary` shape) — populated only
    #: when the testbed ran with telemetry enabled, else None
    phase_latency: Optional[Dict[str, dict]] = None

    @property
    def measure_ns(self) -> float:
        return self.spec.measure_ns


def run_closed_loop(
    testbed: Testbed,
    issue: Callable[[int, int], Event],
    spec: LoadSpec,
    op_bytes: int = 0,
) -> LoadResult:
    """Drive a closed-loop multi-client load and collect statistics.

    ``issue(client_id, op_index)`` posts one operation for a client and
    returns its completion event (value must expose ``latency_ns``, as
    :class:`~repro.protocols.base.WriteOutcome` does).  The run is fully
    deterministic for a given ``spec.seed``: each client slot draws its
    think times from its own seeded generator, and the simulator's event
    order does the rest.
    """
    sim = testbed.sim
    t_start = sim.now
    t_warm = t_start + spec.warmup_ns
    t_stop = t_warm + spec.measure_ns
    stats = [WindowStats(t_warm, t_stop, spec.measure_ns) for _ in range(spec.n_clients)]
    next_op: List[int] = [0] * spec.n_clients

    def _worker(cid: int, slot: int) -> Generator:
        st = stats[cid]
        rng = np.random.default_rng([spec.seed, cid, slot])
        # Stagger slot start-up so the client population does not issue
        # in lock-step at t=0 (think time doubles as the ramp).
        if spec.think_ns > 0.0:
            d = rng.exponential(spec.think_ns) if spec.think_jitter else (
                spec.think_ns * slot / max(spec.outstanding, 1)
            )
            if d > 0.0:
                yield sim.timeout(d)
        while sim.now < t_stop:
            i = next_op[cid]
            next_op[cid] = i + 1
            st.issued += 1
            out = yield issue(cid, i)
            if not st.record(sim.now, out, op_bytes) and not spec.allow_failures:
                raise RuntimeError(f"client {cid} op {i} failed: {out.nacks}")
            if spec.think_ns > 0.0:
                d = rng.exponential(spec.think_ns) if spec.think_jitter else spec.think_ns
                if d > 0.0:
                    yield sim.timeout(d)

    procs = [
        sim.process(_worker(cid, slot), name=f"load.c{cid}.s{slot}")
        for cid in range(spec.n_clients)
        for slot in range(spec.outstanding)
    ]
    t_done, quiesced, latency, phase_latency = finish(testbed, procs, stats)
    return LoadResult(
        spec=spec,
        op_bytes=op_bytes,
        ops=sum(st.ops for st in stats),
        bytes=sum(st.bytes for st in stats),
        issued=sum(st.issued for st in stats),
        failures=sum(st.failures for st in stats),
        elapsed_ns=t_done - t_start,
        latency=latency,
        per_client=[st.summary() for st in stats],
        quiesced=quiesced,
        phase_latency=phase_latency,
    )


def closed_loop_write_load(
    testbed: Testbed,
    size: int,
    protocol: str,
    spec: LoadSpec,
    replication=None,
    ec=None,
    **write_kw,
) -> LoadResult:
    """Closed-loop write load: each logical client writes its own file.

    Clients are spread round-robin over the testbed's client hosts, so a
    testbed built with ``n_clients`` hosts gets true multi-endpoint
    traffic; with one host the load multiplexes through a single NIC.
    """
    n_hosts = len(testbed.clients)
    endpoints = [
        DfsClient(testbed, client_index=c % n_hosts, principal=f"load{c}")
        for c in range(spec.n_clients)
    ]
    data = payload_bytes(size, seed=spec.seed)
    paths = []
    for c, cl in enumerate(endpoints):
        path = f"/load/c{c}"
        cl.create(path, size=max(size, 1) * 2, replication=replication, ec=ec)
        paths.append(path)

    def issue(cid: int, i: int) -> Event:
        return endpoints[cid].write(paths[cid], data, protocol=protocol, **write_kw)

    return run_closed_loop(testbed, issue, spec, op_bytes=size)


def optimal_chunk_size(
    run: Callable[[int], float],
    candidates: Optional[Iterable[int]] = None,
) -> tuple[int, float]:
    """Pick the pipelining chunk size minimising ``run(chunk)`` —
    the paper reports CPU/HyperLoop strategies "with optimal chunk
    size" (§V-B).  Returns (best_chunk, best_latency)."""
    if candidates is None:
        candidates = [8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10]
    best = None
    for c in candidates:
        lat = run(c)
        if best is None or lat < best[1]:
            best = (c, lat)
    assert best is not None
    return best
