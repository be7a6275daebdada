"""PCIe / system-interconnect model.

A shared DMA channel between the NIC and host memory: transfers are
serialized at the PCIe payload bandwidth and each transaction pays the
one-way latency before the data is visible in host memory.  The paper's
motivation hinges on this cost ("a PCIe round-trip can take up to
400 ns" [25], §III): CPU-centric policies pay it on every data touch,
sPIN handlers act on packets *before* they cross it.

Like :class:`~repro.simnet.link.Port`, the channel is a fused callback
chain rather than a Store+server process: one kernel event ends each
transaction's serialization and one delivers its completion, instead of
the get/timeout/finish triple per DMA of the old server loop.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Iterable, Optional, Tuple

from ..params import HostParams
from ..simnet.engine import Event, Simulator
from ..simnet.link import gbps_to_ns_per_byte
from ..telemetry.metrics import HandleCache

__all__ = ["Pcie", "flush_event", "pending_flushes"]


class _Flush(Event):
    """A DMA's durability event, tagged with the channel that serialized
    it: one channel's flushes fire in post order, so a waiter on several
    of them needs only the last (see ``HandlerApi.all_dma_flushed``).
    ``durable`` is the instant it fires, known at post because the
    channel is FIFO (``HandlerApi.dma_write`` closes its commit span
    with it)."""

    __slots__ = ("channel", "durable")


def pending_flushes(sim: Simulator, handles: Iterable) -> list:
    """The DMA handles (``_Flush`` events, other completion events, or
    :meth:`Pcie.post_write` posts) whose flush has not landed yet.  A
    post has landed once its rank ``(durable, seq)`` is at or before
    the entry being dispatched: where its completion entry would have
    run."""
    now = sim.now
    dseq = sim._dseq
    out = []
    for h in handles:
        if type(h) is list:
            t = h[0]
            if t > now or (t == now and h[1] > dseq):
                out.append(h)
        elif not h.triggered:
            out.append(h)
    return out


def flush_event(handle) -> Event:
    """The event of a DMA handle: the handle itself, or, for a pending
    post, a ``_Flush`` armed at the post's reserved rank (built once,
    on the first wait)."""
    if type(handle) is not list:
        return handle
    ev = handle[2]
    if isinstance(ev, Event):
        return ev
    chan = handle[5]
    ev = _Flush(chan.sim, name=chan._dma_name)
    ev.channel = chan
    ev.durable = handle[0]
    handle[6]._arm(handle, ev)
    return ev


def flush_channel(handle):
    """The channel that serialized a DMA handle (None: not a PCIe flush)."""
    if type(handle) is list:
        return handle[5]
    return getattr(handle, "channel", None)


class Pcie:
    """A serializing DMA channel with per-transaction latency.

    ``dma(nbytes, on_complete)`` returns an event firing when the data is
    durable in host memory (serialization through the channel + one-way
    latency).  Transactions from concurrent packets queue FIFO, so a
    flood of incoming writes sees PCIe as a bandwidth resource, not just
    a constant.

    Visibility rule: a DMA's bytes are in host memory from its durable
    instant, never before.  ``post_write(target, addr, data)`` is the
    same transaction for a payload write into ``target``; with
    telemetry off its completion is a deferred entry on ``target``,
    applied by the target's next reader, with no event until
    :func:`flush_event` asks.
    """

    def __init__(self, sim: Simulator, params: HostParams, name: str = "pcie"):
        self.sim = sim
        self.params = params
        self.name = name
        # telemetry track: group under the owning node ("sn0.pcie" ->
        # process "host:sn0", thread "pcie")
        self._pid = f"host:{name.rsplit('.', 1)[0]}" if "." in name else "host"
        self._ns_per_byte = gbps_to_ns_per_byte(params.pcie_bandwidth_gbps)
        self._dma_name = f"{name}.dma"
        self._q: Deque[Tuple[int, Optional[Callable[[], None]], Event, object]] = deque()
        #: end of the last scheduled serialization
        self._free_t = 0.0
        self._busy = False
        self._cur: Optional[Tuple[int, Optional[Callable[[], None]], Event, object]] = None
        self.bytes_transferred = 0
        self.transactions = 0
        self.busy_ns = 0.0
        self._handles = HandleCache(
            lambda m: (
                m.counter(f"pcie.{name}.busy_ns"),
                m.counter(f"pcie.{name}.bytes"),
                m.gauge(f"pcie.{name}.queue_depth"),
            )
        )

    def dma(
        self,
        nbytes: int,
        on_complete: Optional[Callable[[], None]] = None,
        trace=None,
    ) -> Event:
        """Move ``nbytes`` across the interconnect; event fires when the
        transfer is durable (flushed) at the far side.  ``trace`` is an
        optional request trace context attached to the emitted span."""
        if nbytes < 0:
            raise ValueError("negative DMA size")
        sim = self.sim
        done = _Flush(sim, name=self._dma_name)
        done.channel = self
        ser = nbytes * self._ns_per_byte
        if not sim.telemetry.enabled:
            durable = done.durable = self._closed_form(nbytes, ser)
            sim._call_at1(self._finish, (on_complete, done), durable)
            return done
        # The chain starts this transaction now, or when the one queued
        # last ends: the same floats as the closed form above.
        start = self._free_t if self._busy else sim.now
        self._free_t = start + ser
        done.durable = self._free_t + self.params.pcie_latency_ns
        txn = (nbytes, on_complete, done, trace)
        if self._busy:
            self._q.append(txn)
        else:
            self._start(txn)
        return done

    def _closed_form(self, nbytes: int, ser: float) -> float:
        """Closed-form scheduling: with telemetry off the callback
        chain's only externally visible effects are the completion at
        end-of-serialization + latency and the aggregate counters, so
        the whole FIFO schedule collapses to arithmetic on ``_free_t`` —
        same floats as the chain (start = prior end, end = start + ser,
        durable = end + lat).  Returns the durable instant."""
        t = self.sim.now
        free = self._free_t
        start = free if free > t else t
        end = start + ser
        self._free_t = end
        self.busy_ns += ser
        self.bytes_transferred += nbytes
        self.transactions += 1
        return end + self.params.pcie_latency_ns

    def post_write(self, target, addr: int, data, trace=None):
        """DMA ``data`` into ``target`` at ``addr``; returns the DMA's
        handle for :func:`pending_flushes`.

        With telemetry on, this is :meth:`dma` with the write as its
        completion, and the handle is the flush event.  With it off, the
        transaction is scheduled in closed form and its completion is a
        deferred entry on ``target`` (a
        :class:`~repro.simnet.engine.Deferrer`) ranked where ``dma``
        would push it: ``target``'s readers apply it from its durable
        instant on, and :func:`flush_event` arms it for a waiter.
        ``target`` must be written by this channel only: its FIFO order
        is what keeps the target's deferred writes in rank order.
        """
        sim = self.sim
        if sim.telemetry.enabled:
            return self.dma(data.nbytes, on_complete=lambda: target.write(addr, data),
                            trace=trace)
        nbytes = data.nbytes
        durable = self._closed_form(nbytes, nbytes * self._ns_per_byte)
        sim._seq += 1
        rec = [durable, sim._seq, None, addr, data, self, target]
        target._dsim = sim
        target._defer(rec)
        return rec

    @staticmethod
    def _finish(pair) -> None:
        cb, done = pair
        if cb is not None:
            cb()
        done.succeed_quiet(None)

    # -- DMA fast path ----------------------------------------------------
    def _start(self, txn) -> None:
        self._busy = True
        self._cur = txn
        ser = txn[0] * self._ns_per_byte
        self.sim._call_soon1(self._ser_done, ser, delay=ser)

    def _ser_done(self, ser: float) -> None:
        sim = self.sim
        txn = self._cur
        assert txn is not None
        nbytes, on_complete, done, trace = txn
        lat = self.params.pcie_latency_ns
        self.busy_ns += ser
        self.bytes_transferred += nbytes
        self.transactions += 1
        tel = sim.telemetry
        if tel.enabled:
            tel.span(
                f"dma {nbytes}B",
                pid=self._pid,
                tid="pcie",
                t0=sim.now - ser,
                t1=sim.now + lat,
                cat="host",
                trace=trace,
                args={"bytes": nbytes},
                phase="dma",
            )
            busy, tbytes, gauge = self._handles.get(tel.metrics)
            busy.inc(ser)
            tbytes.inc(nbytes)
            gauge.set(sim.now, len(self._q))
        # Latency overlaps with the next transaction's serialization
        # (posted writes pipeline through the root complex).
        if self._q:
            self._start(self._q.popleft())
        else:
            self._busy = False
            self._cur = None
        sim._call_soon1(self._finish, (on_complete, done), delay=lat)

    def utilisation(self) -> float:
        return self.busy_ns / self.sim.now if self.sim.now > 0 else 0.0
