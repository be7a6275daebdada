"""Latency anatomy: exact critical-path decomposition of request spans.

The raw telemetry of a run is a pile of spans — wire serializations,
HPU handler executions, PCIe crossings, retransmission backoffs — all
linked to their originating request by ``trace_id``.  This module turns
that pile into the paper's actual figures: *where did the latency go?*

Two complementary views per operation:

**Phase decomposition** (:func:`decompose`).  Every instant of the
request's ``[t0, t1)`` window is attributed to exactly one *phase*.
Spans carry a phase tag (``wire``, ``hpu``, ``dma``, ...); where tagged
spans overlap — a DMA flushing while the payload handler still runs —
the instant goes to the highest-priority phase (:data:`PRIORITY`), and
time covered by no span at all lands in ``other`` (propagation delays,
switch/NIC pipeline latencies, completion polling).  Because the phases
partition the window, they **sum exactly to the end-to-end latency**
(to float rounding, far below 1 ns); a request whose phases miss it by
more than :data:`SUM_TOLERANCE_NS` raises :class:`AnatomyError`, so every
consumer of the decomposition is checked.

``retransmit`` sits at the *bottom* of the priority order: a backoff
span only claims time in which nothing else made progress, so under
seeded loss the decomposition shows precisely the latency the fault
added, not double-counted wire time.

**Critical path** (:func:`critical_path`).  A backwards "last finisher"
walk over the request's concurrent child spans: starting from the
request's completion, repeatedly step to the span that finished latest
and jump to its start.  Gaps (no span active) become explicit ``wait``
steps, so the returned steps also tile the window exactly.

Both views are pure post-hoc queries: they never mutate the telemetry
sink and cost nothing while the simulation runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .spans import Span, Telemetry

__all__ = [
    "PHASES",
    "PRIORITY",
    "SUM_TOLERANCE_NS",
    "AnatomyError",
    "OpAnatomy",
    "CriticalStep",
    "decompose",
    "decompose_trace",
    "critical_path",
    "phase_summary",
]

#: every latency-anatomy phase, in pipeline order (`other` = time covered
#: by no tagged span: propagation, switch/NIC pipelines, completion poll)
PHASES = (
    "submit",      # WQE build + doorbell + NIC tx pipeline
    "host_queue",  # waiting in the sender's egress queue / send loop
    "wire",        # packet serialization onto links
    "hpu",         # PsPIN handler execution
    "cpu",         # host CPU execution (RPC / CPU-replication paths)
    "dma",         # PCIe crossings, NVMe programs, commit-to-durability
    "ack",         # serialization of ack / nack / response packets
    "retransmit",  # RTO backoff: stalled time added by seeded faults
    "other",       # propagation, switch latency, rx pipelines, CQ poll
)

#: attribution priority for overlapping spans, highest first.  Compute
#: (hpu/cpu) beats the DMA it overlaps with, so ``dma`` is the
#: *non-overlapped* flush tail that actually gates the ack;
#: ``retransmit`` is last so backoff only claims otherwise-idle time.
PRIORITY = ("hpu", "cpu", "dma", "ack", "wire", "submit", "host_queue", "retransmit")

_PRIO_INDEX = {p: i for i, p in enumerate(PRIORITY)}
_N_PRIO = len(PRIORITY)
#: phase credited per sweep slot; the extra last slot holds phases tagged
#: outside PRIORITY, which claim time only when nothing ranked is active
_SLOT_PHASES = PRIORITY + ("retransmit",)
_SLOTS = range(_N_PRIO + 1)

#: per-request decomposition defect ceiling: phases must sum to the
#: end-to-end latency within this (float rounding is orders below it)
SUM_TOLERANCE_NS = 1.0


class AnatomyError(ValueError):
    """A request's phases do not sum to its end-to-end latency: a span
    is mis-tagged or double-counted."""


@dataclass
class OpAnatomy:
    """Exact phase decomposition of one request."""

    trace_id: int
    name: str
    protocol: str
    op: str
    nbytes: int
    ok: bool
    t0: float
    t1: float
    phases: Dict[str, float] = field(default_factory=dict)
    n_spans: int = 0

    @property
    def end_to_end_ns(self) -> float:
        return self.t1 - self.t0

    @property
    def sum_ns(self) -> float:
        return sum(self.phases.values())

    @property
    def sum_error_ns(self) -> float:
        """Decomposition defect: 0 up to float rounding (well under 1 ns)."""
        return self.sum_ns - self.end_to_end_ns

    def to_dict(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "protocol": self.protocol,
            "op": self.op,
            "bytes": self.nbytes,
            "ok": self.ok,
            "end_to_end_ns": self.end_to_end_ns,
            "phases": dict(self.phases),
            "sum_error_ns": self.sum_error_ns,
        }


@dataclass
class CriticalStep:
    """One hop of a request's critical path."""

    name: str
    phase: str
    pid: str
    tid: str
    t0: float
    t1: float

    @property
    def duration_ns(self) -> float:
        return self.t1 - self.t0


# ------------------------------------------------------------ decomposition
def _phase_intervals(
    root: Span, children: Iterable[Span]
) -> List[Tuple[float, float, int]]:
    """Children clipped to the root window as (t0, t1, priority) tuples."""
    lo, hi = root.t0, root.t1
    out: List[Tuple[float, float, int]] = []
    for s in children:
        if s.t1 is None or s.phase is None:
            continue
        prio = _PRIO_INDEX.get(s.phase, _N_PRIO)
        a = s.t0 if s.t0 > lo else lo
        b = s.t1 if s.t1 < hi else hi
        if b > a:
            out.append((a, b, prio))
    return out


def _attribute(
    trace_id: int, t0: float, t1: float, intervals: List[Tuple[float, float, int]]
) -> Dict[str, float]:
    """Sweep the elementary segments of ``[t0, t1)``, crediting each to
    the highest-priority active phase (``other`` when none is active).
    The segments partition the window, so the credited times sum to
    ``t1 - t0`` up to float rounding; raises :class:`AnatomyError` when
    they exceed it by more than :data:`SUM_TOLERANCE_NS`."""
    phases = dict.fromkeys(PHASES, 0.0)
    events: List[Tuple[float, int, int]] = []
    for a, b, prio in intervals:
        events.append((a, prio, 1))
        events.append((b, prio, -1))
    # Plain tuple order: events tied on time are all applied before the
    # next segment is credited, so their order within the tie is moot.
    events.sort()
    events.append((t1, 0, 0))  # a no-op event closes the last segment
    counts = [0] * (_N_PRIO + 1)
    prev = t0
    for t, prio, delta in events:
        if t > prev:
            # the first event at ``t`` closes [prev, t): credit it to the
            # highest-priority phase active there
            for i in _SLOTS:
                if counts[i] > 0:
                    phases[_SLOT_PHASES[i]] += t - prev
                    break
            else:
                phases["other"] += t - prev
            prev = t
        counts[prio if prio < _N_PRIO else _N_PRIO] += delta
    # The swept total, `other` included, is what the segments covered:
    # past the window means time credited twice or outside it.  Checked
    # before the fold below, which would let `other` hide such an overrun.
    named = sum(phases[p] for p in PHASES if p != "other")
    swept = named + phases["other"]
    if swept - (t1 - t0) > SUM_TOLERANCE_NS:
        raise AnatomyError(f"trace {trace_id}: phases sum to {swept:.3f} ns, "
                           f"{swept - (t1 - t0):.3f} ns over its end-to-end "
                           f"latency {t1 - t0:.3f} ns")
    # Fold accumulated rounding into `other` so the phases sum to the
    # end-to-end latency as exactly as floats allow.
    residual = (t1 - t0) - named
    phases["other"] = residual if residual > 0.0 else 0.0
    return phases


def decompose_trace(root: Span, children: Iterable[Span]) -> OpAnatomy:
    """Phase decomposition of one finished request span; raises
    :class:`AnatomyError` when its phases miss its end-to-end latency."""
    assert root.t1 is not None, "decompose_trace needs a finished root"
    trace_id = root.trace_id if root.trace_id is not None else -1
    intervals = _phase_intervals(root, children)
    phases = _attribute(trace_id, root.t0, root.t1, intervals)
    args = root.args or {}
    return OpAnatomy(
        trace_id=trace_id,
        name=root.name,
        protocol=str(args.get("protocol", "")),
        op=str(args.get("op", "")),
        nbytes=int(args.get("bytes", 0)),
        ok=bool(args.get("ok", True)),
        t0=root.t0,
        t1=root.t1,
        phases=phases,
        n_spans=len(intervals),
    )


def _traces(tel: Telemetry) -> List[Tuple[Span, List[Span]]]:
    """(root, children) per finished request, in root start order."""
    by_trace: Dict[int, List[Span]] = {}
    roots: List[Span] = []
    for s in tel.spans:
        if s.trace_id is None:
            continue
        if s.cat == "request":
            if s.t1 is not None:
                roots.append(s)
        else:
            by_trace.setdefault(s.trace_id, []).append(s)
    roots.sort(key=lambda r: (r.t0, r.span_id))
    return [(r, by_trace.get(r.trace_id, [])) for r in roots]


def decompose(tel: Telemetry) -> List[OpAnatomy]:
    """Phase decomposition of every finished request in the sink; raises
    :class:`AnatomyError` on the first request whose phases miss its
    end-to-end latency by more than :data:`SUM_TOLERANCE_NS`."""
    return [decompose_trace(root, kids) for root, kids in _traces(tel)]


# ------------------------------------------------------------ critical path
def critical_path(tel: Telemetry, trace_id: int) -> List[CriticalStep]:
    """Backwards last-finisher walk over one request's child spans.

    The returned steps tile ``[root.t0, root.t1)`` exactly: intervals in
    which no child span was active appear as explicit ``wait`` steps
    (phase ``other``), so ``sum(step.duration_ns)`` equals the request's
    end-to-end latency.
    """
    root = None
    for s in tel.spans:
        if s.cat == "request" and s.trace_id == trace_id and s.t1 is not None:
            root = s
            break
    if root is None:
        raise KeyError(f"no finished request span for trace {trace_id}")
    spans = [
        s
        for s in tel.spans
        if s.trace_id == trace_id
        and s is not root
        and s.t1 is not None
        and s.phase is not None
        and s.t1 > root.t0
        and s.t0 < root.t1
    ]
    steps: List[CriticalStep] = []
    cur = root.t1
    while cur > root.t0:
        best: Optional[Span] = None
        best_end = root.t0
        for s in spans:
            if s.t0 >= cur:
                continue
            end = s.t1 if s.t1 < cur else cur
            if end <= root.t0:
                continue
            # latest finisher wins; ties go to the earliest starter so
            # the walk jumps as far back as possible in one step
            if best is None or end > best_end or (end == best_end and s.t0 < best.t0):
                best, best_end = s, end
        if best is None:
            steps.append(CriticalStep("wait", "other", root.pid, root.tid, root.t0, cur))
            break
        if best_end < cur:
            steps.append(CriticalStep("wait", "other", root.pid, root.tid, best_end, cur))
        start = best.t0 if best.t0 > root.t0 else root.t0
        steps.append(
            CriticalStep(best.name, best.phase or "other", best.pid, best.tid, start, best_end)
        )
        cur = start
    steps.reverse()
    return steps


# ---------------------------------------------------------------- summaries
def phase_summary(ops: List[OpAnatomy]) -> Dict[str, Dict[str, Optional[float]]]:
    """Per-phase distribution statistics over a population of operations.

    Returns ``{phase: summarize(...)}`` for every phase plus an
    ``end_to_end`` entry — the shape consumed by :mod:`repro.slo`.
    """
    from ..simnet.trace import summarize

    out: Dict[str, Dict[str, Optional[float]]] = {}
    for phase in PHASES:
        out[phase] = summarize([op.phases.get(phase, 0.0) for op in ops])
    out["end_to_end"] = summarize([op.end_to_end_ns for op in ops])
    return out
