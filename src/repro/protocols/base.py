"""Shared protocol-driver plumbing.

Every write protocol is an async driver: it configures nothing (server
personalities are installed separately), builds the wire messages, and
returns an :class:`~repro.simnet.engine.Event` whose value is a
:class:`WriteOutcome`.  Latency is measured the way the paper does it:
from issuing the write request to receiving the (last) write response.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.request import DfsHeader, ReplicaCoord, ReplicationParams, request_header_bytes
from ..dfs.capability import Capability
from ..dfs.layout import FileLayout
from ..dfs.nodes import ClientNode
from ..simnet.engine import Event

__all__ = [
    "WriteOutcome",
    "make_dfs_header",
    "replication_params_for",
    "WriteContext",
    "begin_request",
    "wrap_result",
]


@dataclass
class WriteOutcome:
    """Result of one logical write operation."""

    ok: bool
    t_start: float
    t_end: float
    size: int
    protocol: str
    greq_id: int = -1
    nacks: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def latency_ns(self) -> float:
        return self.t_end - self.t_start

    def goodput_gbps(self) -> float:
        return self.size * 8.0 / self.latency_ns if self.latency_ns > 0 else 0.0


@dataclass
class WriteContext:
    """Client identity + ticket bundle passed to protocol drivers."""

    client: ClientNode
    client_id: int
    capability: Optional[Capability]

    def dfs_header(self, greq_id: int, op: str = "write") -> DfsHeader:
        return make_dfs_header(self, greq_id, op)


def make_dfs_header(ctx: WriteContext, greq_id: int, op: str = "write") -> DfsHeader:
    return DfsHeader(
        greq_id=greq_id,
        op=op,  # type: ignore[arg-type]
        client_id=ctx.client_id,
        capability=ctx.capability,
        reply_to=ctx.client.name,
    )


def replication_params_for(layout: FileLayout, virtual_rank: int = 0) -> ReplicationParams:
    """Build the source-routed broadcast description from a layout."""
    assert layout.replication is not None
    coords = tuple(ReplicaCoord(e.node, e.addr) for e in layout.extents[1:])
    return ReplicationParams(
        strategy=layout.replication.strategy,
        virtual_rank=virtual_rank,
        coords=coords,
    )


def as_uint8(data) -> np.ndarray:
    """Coerce bytes-like / array input to a flat uint8 array (zero-copy
    for uint8 arrays and bytes objects)."""
    if isinstance(data, np.ndarray):
        arr = data if data.dtype == np.uint8 else data.astype(np.uint8)
        return arr.ravel()
    if isinstance(data, (bytes, bytearray, memoryview)):
        return np.frombuffer(bytes(data), dtype=np.uint8)
    return np.asarray(data, dtype=np.uint8).ravel()


def begin_request(ctx: WriteContext, protocol: str, op: str, size: int):
    """Open a root telemetry span for one logical DFS request.

    Returns ``(span, trace_context)`` — or ``(None, None)`` when telemetry
    is disabled, so drivers can pass the results straight through to
    message headers and :func:`wrap_result` unconditionally.
    """
    sim = ctx.client.sim
    tel = sim.telemetry
    if not tel.enabled:
        return None, None
    return tel.root(
        f"{protocol} {op} {size}B",
        pid="requests",
        tid=ctx.client.name,
        t0=sim.now,
        args={"protocol": protocol, "op": op, "bytes": size},
    )


def wrap_result(
    sim, done: Event, size: int, protocol: str, span=None
) -> Event:
    """Adapt a NIC completion event (OpResult) into a WriteOutcome event.

    When telemetry is enabled this is also the single choke point for
    per-protocol request metrics: the root ``span`` (from
    :func:`begin_request`) is closed at the outcome's ``t_end`` and the
    request latency lands in the ``protocol.<name>.latency_ns``
    histogram.
    """
    out = sim.event(name=f"outcome({protocol})")

    def convert(ev):
        res = ev.value
        if ev.exception is not None:
            out.fail(ev.exception)
            return
        outcome = WriteOutcome(
            ok=res.ok,
            t_start=res.t_start,
            t_end=res.t_end,
            size=size,
            protocol=protocol,
            greq_id=res.greq_id,
            nacks=list(res.nacks),
        )
        tel = sim.telemetry
        if tel.enabled:
            if span is not None:
                tel.end(span, outcome.t_end)
                span.args["ok"] = outcome.ok
            m = tel.metrics
            m.histogram(f"protocol.{protocol}.latency_ns").observe(outcome.latency_ns)
            m.counter(f"protocol.{protocol}.requests").inc()
            if not outcome.ok:
                m.counter(f"protocol.{protocol}.nacked").inc()
        # the outcome's waiters run in this dispatch: nothing happens
        # between the NIC completion and the outcome it is adapted into
        out.succeed_inline(outcome)

    done.add_callback(convert)
    return out
