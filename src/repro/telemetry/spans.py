"""Span-based request tracing.

One :class:`Telemetry` instance hangs off every
:class:`~repro.simnet.engine.Simulator` as ``sim.telemetry`` (disabled
by default), so every component — links, switches, NICs, the PsPIN
accelerator, the host models — can reach the same sink without plumbing
an extra constructor argument through the stack.

The model is deliberately small, shaped after OpenTelemetry / Chrome
``trace_event`` slices:

* a **span** is a named ``[t0, t1)`` interval on a *track* — a
  ``(pid, tid)`` pair such as ``("pspin:sn0", "cluster2")`` — optionally
  linked into a request tree via ``trace_id``/``parent_id``;
* a **trace context** is the tiny ``(trace_id, span_id)`` tuple carried
  on :class:`~repro.simnet.packet.Packet` objects so spans emitted deep
  in the stack (handler executions, PCIe commits, ack serialization)
  attach to the originating DFS request;
* a **phase** is an optional latency-anatomy label (``"wire"``,
  ``"hpu"``, ``"dma"``, ``"retransmit"``, ...) consumed by
  :mod:`repro.telemetry.anatomy` to decompose a request's end-to-end
  latency into non-overlapping stages.  See ``docs/observability.md``
  for the taxonomy.

Zero-overhead-when-disabled contract: every instrumentation site guards
with ``if tel.enabled:`` — a disabled simulation pays one attribute load
and one branch per site, nothing else (enforced by the pipeline section
of ``python -m repro perf --check``: telemetry-off time may exceed
telemetry-on time by at most 3%).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple

from .metrics import MetricsRegistry

__all__ = ["TraceContext", "Span", "Telemetry"]


class TraceContext:
    """The wire-carried link between a packet and its request span."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: int, span_id: int):
        self.trace_id = trace_id
        self.span_id = span_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TraceContext trace={self.trace_id} span={self.span_id}>"


class Span:
    """A named interval on a ``(pid, tid)`` track."""

    __slots__ = (
        "name", "cat", "pid", "tid", "t0", "t1",
        "span_id", "trace_id", "parent_id", "args", "phase",
    )

    def __init__(
        self,
        name: str,
        cat: str,
        pid: str,
        tid: str,
        t0: float,
        span_id: int,
        trace_id: Optional[int] = None,
        parent_id: Optional[int] = None,
        args: Optional[Dict[str, Any]] = None,
        phase: Optional[str] = None,
    ):
        self.name = name
        self.cat = cat
        self.pid = pid
        self.tid = tid
        self.t0 = t0
        self.t1: Optional[float] = None
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.args = args
        self.phase = phase

    @property
    def duration_ns(self) -> float:
        return (self.t1 if self.t1 is not None else self.t0) - self.t0

    def context(self) -> TraceContext:
        """A trace context naming this span as the parent."""
        return TraceContext(self.trace_id if self.trace_id is not None else self.span_id,
                            self.span_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span {self.name!r} [{self.pid}/{self.tid}] "
            f"t0={self.t0} dur={self.duration_ns}>"
        )


class Telemetry:
    """Per-simulation observability sink: spans + a metrics registry.

    ``enabled`` is the single master switch; flipping it mid-run is
    legal (components re-check it at every instrumentation site).
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: List[Span] = []
        self.metrics = MetricsRegistry()
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)

    # ------------------------------------------------------------- spans
    def begin(
        self,
        name: str,
        pid: str,
        tid: str,
        t0: float,
        cat: str = "span",
        trace: Optional[TraceContext] = None,
        args: Optional[Dict[str, Any]] = None,
        phase: Optional[str] = None,
    ) -> Span:
        """Open a span; close it later with :meth:`end`."""
        span = Span(
            name, cat, pid, tid, t0,
            span_id=next(self._span_ids),
            trace_id=trace.trace_id if trace is not None else None,
            parent_id=trace.span_id if trace is not None else None,
            args=args,
            phase=phase,
        )
        self.spans.append(span)
        return span

    @staticmethod
    def end(span: Span, t1: float) -> Span:
        span.t1 = t1
        return span

    def span(
        self,
        name: str,
        pid: str,
        tid: str,
        t0: float,
        t1: float,
        cat: str = "span",
        trace: Optional[TraceContext] = None,
        args: Optional[Dict[str, Any]] = None,
        phase: Optional[str] = None,
    ) -> Span:
        """Record an already-finished span."""
        s = self.begin(name, pid, tid, t0, cat=cat, trace=trace, args=args,
                       phase=phase)
        s.t1 = t1
        return s

    def root(
        self,
        name: str,
        pid: str,
        tid: str,
        t0: float,
        cat: str = "request",
        args: Optional[Dict[str, Any]] = None,
    ) -> Tuple[Span, TraceContext]:
        """Open a root span for a new request; returns the span plus the
        trace context to stamp onto the request's packets."""
        trace_id = next(self._trace_ids)
        span = Span(
            name, cat, pid, tid, t0,
            span_id=next(self._span_ids),
            trace_id=trace_id,
            parent_id=None,
            args=args,
        )
        self.spans.append(span)
        return span, TraceContext(trace_id, span.span_id)

    # ----------------------------------------------------------- queries
    def finished_spans(self) -> List[Span]:
        return [s for s in self.spans if s.t1 is not None]

    def spans_by_cat(self, cat: str) -> List[Span]:
        return [s for s in self.spans if s.cat == cat]

    def spans_for_trace(self, trace_id: int) -> List[Span]:
        return [s for s in self.spans if s.trace_id == trace_id]

    def reset(self) -> None:
        """Drop recorded data (the enabled flag is left untouched)."""
        self.spans.clear()
        self.metrics = MetricsRegistry()
