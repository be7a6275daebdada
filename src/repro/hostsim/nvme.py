"""NVMe JBOF storage backend (§III).

The paper targets two storage media: NVMM (handlers DMA straight to
host memory — the default :class:`~repro.hostsim.memory.MemoryTarget`)
and NVMe just-a-bunch-of-flash, where "handlers would directly issue
NVMe writes via the system interconnect".  This module models the
latter: a bank of NVMe namespaces behind submission queues, each with a
fixed program latency and a bandwidth limit.  Writes are durable (and
visible to reads) only once the device completes them — so completion
handlers that wait for durability now wait for flash, not just PCIe.

The functional byte store is the same flat buffer, so every byte-level
assertion in the test-suite works identically against either backend.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..simnet.engine import Event, Simulator
from ..simnet.link import gbps_to_ns_per_byte
from ..simnet.resources import Resource, Store
from ..telemetry.metrics import HandleCache
from .memory import MemoryTarget

__all__ = ["NvmeParams", "NvmeTarget"]

from dataclasses import dataclass


@dataclass(frozen=True)
class NvmeParams:
    """A fast NVMe SSD (Gen4 enterprise class)."""

    #: flash program latency per write command
    write_latency_ns: float = 10_000.0
    #: sustained per-channel write bandwidth
    channel_gbps: float = 16.0
    #: parallel flash channels per device
    n_channels: int = 8
    #: submission-queue depth before new commands block
    queue_depth: int = 256


class NvmeTarget(MemoryTarget):
    """A byte-addressable view over an NVMe device model.

    ``write`` is *functional and immediate* (so callers that already
    waited for their own timing model keep working); ``submit_write``
    is the timed path: it returns an event firing when the command
    completes (data durable), charging queueing, channel bandwidth, and
    program latency.
    """

    def __init__(self, sim: Simulator, capacity: int, params: Optional[NvmeParams] = None,
                 name: str = "nvme"):
        super().__init__(capacity)
        self.sim = sim
        self.params = params or NvmeParams()
        self.name = name
        self._ns_per_byte = gbps_to_ns_per_byte(self.params.channel_gbps)
        self._channels = Resource(sim, self.params.n_channels, name=f"{name}.channels")
        self._sq: Store = Store(sim, capacity=self.params.queue_depth, name=f"{name}.sq")
        self.commands_completed = 0
        self.queue_full_rejections = 0
        # handles resolved once per registry, not per command (SIM401)
        self._handles = HandleCache(
            lambda m: (
                m.counter(f"nvme.{name}.bytes"),
                m.counter(f"nvme.{name}.commands"),
                m.gauge(f"nvme.{name}.sq_depth"),
            )
        )
        sim.process(self._dispatcher(), name=f"{name}.dispatch")

    # ------------------------------------------------------------- timed
    def submit_write(self, addr: int, data: np.ndarray) -> Event:
        """Queue a write command; event fires at durability."""
        data = np.asarray(data, dtype=np.uint8)
        self.check_range(addr, data.nbytes)
        done = self.sim.event(name=f"{self.name}.cmd")
        if not self._sq.put((addr, data, done)):
            self.queue_full_rejections += 1
            # a rejected command is an expected outcome, not a crash:
            # consume the failure so unobserved events don't take the
            # simulator down
            done.add_callback(lambda ev: None)
            done.fail(RuntimeError(f"{self.name}: submission queue full"))
        return done

    def _dispatcher(self):
        while True:
            addr, data, done = yield self._sq.get()
            self.sim.process(self._program(addr, data, done))

    def _program(self, addr: int, data: np.ndarray, done: Event):
        # The channel is busy only while the data streams to the die;
        # the flash *program* latency overlaps across planes, so it
        # delays completion without blocking the channel.
        req = self._channels.request()
        yield req
        t0 = self.sim.now
        try:
            yield self.sim.timeout(data.nbytes * self._ns_per_byte)
        finally:
            self._channels.release(req)
        yield self.sim.timeout(self.params.write_latency_ns)
        super().write(addr, data)
        self.commands_completed += 1
        tel = self.sim.telemetry
        if tel.enabled:
            pid = f"host:{self.name.rsplit('.', 1)[0]}" if "." in self.name else "host"
            tel.span(
                f"nvme program {data.nbytes}B",
                pid=pid,
                tid="nvme",
                t0=t0,
                t1=self.sim.now,
                cat="host",
                args={"bytes": int(data.nbytes), "addr": addr},
                phase="dma",
            )
            nbytes, ncmds, sq_depth = self._handles.get(tel.metrics)
            nbytes.inc(data.nbytes)
            ncmds.inc()
            sq_depth.set(self.sim.now, len(self._sq))
        done.succeed(None)
