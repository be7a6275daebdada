"""Storage-node CPU model.

A pool of cores (a :class:`~repro.simnet.resources.Resource`) plus
helpers to charge cycle- or byte-denominated work.  The CPU is where the
RPC-based baselines (Fig. 1b) enforce DFS policies: request validation,
buffering copies, and replication forwarding all occupy a core here.
"""

from __future__ import annotations

from ..params import HostParams
from ..simnet.engine import Simulator
from ..simnet.link import gbps_to_ns_per_byte
from ..simnet.resources import Resource
from ..telemetry.metrics import HandleCache

__all__ = ["Cpu"]


class Cpu:
    """``cores`` identical cores at ``cpu_freq_ghz``."""

    def __init__(self, sim: Simulator, params: HostParams, name: str = "cpu"):
        self.sim = sim
        self.params = params
        self.name = name
        self._pid = f"host:{name.rsplit('.', 1)[0]}" if "." in name else "host"
        self.cores = Resource(sim, capacity=params.cpu_cores, name=f"{name}.cores")
        self._memcpy_ns_per_byte = gbps_to_ns_per_byte(params.memcpy_gbps)
        self.busy_ns = 0.0
        # handles resolved once per registry, not per run() (SIM401)
        self._handles = HandleCache(
            lambda m: (
                m.counter(f"cpu.{name}.busy_ns"),
                m.gauge(f"cpu.{name}.cores_busy"),
            )
        )

    def cycles_ns(self, cycles: float) -> float:
        return cycles / self.params.cpu_freq_ghz

    def memcpy_ns(self, nbytes: int) -> float:
        """Single-core buffered copy cost (what the RPC write path pays
        to stage data while validating, §IV-A)."""
        return nbytes * self._memcpy_ns_per_byte

    def run(self, duration_ns: float, trace=None):
        """Generator: occupy one core for ``duration_ns``.

        Usage: ``yield from cpu.run(t)`` inside a process.  ``trace``
        (a request trace context) attributes the execution to its
        request's latency anatomy.
        """
        req = self.cores.request()
        yield req
        t0 = self.sim.now
        try:
            yield self.sim.timeout(duration_ns)
            self.busy_ns += duration_ns
        finally:
            self.cores.release(req)
        tel = self.sim.telemetry
        if tel.enabled:
            tel.span(
                f"cpu {duration_ns:.0f}ns",
                pid=self._pid,
                tid="cpu",
                t0=t0,
                t1=self.sim.now,
                cat="host",
                trace=trace,
                phase="cpu",
            )
            busy, cores_busy = self._handles.get(tel.metrics)
            busy.inc(duration_ns)
            cores_busy.set(self.sim.now, self.cores.count)

    def utilisation(self) -> float:
        return self.cores.utilisation()
