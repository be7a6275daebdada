"""Storage-node CPU model.

A pool of cores (a :class:`~repro.simnet.resources.Resource`) plus
helpers to charge cycle- or byte-denominated work.  The CPU is where the
RPC-based baselines (Fig. 1b) enforce DFS policies: request validation,
buffering copies, and replication forwarding all occupy a core here.

Core occupancy has one implementation, the :class:`CoreHold` record of
heap callbacks; callback chains (the RPC server and handlers) make one
per occupancy, and :meth:`Cpu.run` wraps it for callers that are still
generator processes.  A hold runs to completion: once requested, the
core is granted, held for the whole duration and released, and nothing
withdraws or cuts it short.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..params import HostParams
from ..simnet.engine import Simulator
from ..simnet.link import gbps_to_ns_per_byte
from ..simnet.resources import Resource
from ..telemetry.metrics import HandleCache

__all__ = ["Cpu", "CoreHold"]


class CoreHold:
    """One core occupancy as heap callbacks: ``CoreHold(cpu, d, then,
    arg, trace, strand)`` requests a core of ``cpu`` now, holds it for
    ``d`` ns and then calls ``then(arg)``.

    ``granted`` runs where a process waiting on the core request would
    resume (one ``_call_soon1`` when the core is free, the grant's
    dispatch otherwise) and sleeps ``duration_ns`` with one push where
    the process's ``Timeout`` went.  ``done`` then accounts ``busy_ns``,
    releases the core, writes the ``cpu`` span and metrics (``trace``,
    a request trace context, attributes it to that request's latency
    anatomy), and calls ``then(arg)``.  ``strand`` names the calling
    chain for simsan.
    """

    __slots__ = ("cpu", "duration_ns", "trace", "t0", "then", "arg", "strand")

    def __init__(self, cpu: "Cpu", duration_ns: float, then: Callable[[Any], None],
                 arg: Any, trace, strand: Optional[str]) -> None:
        self.cpu = cpu
        self.duration_ns = duration_ns
        self.trace = trace
        self.then = then
        self.arg = arg
        self.strand = strand
        self.t0 = -1.0
        # the hold takes the core itself (no Request): like a process
        # yielding a request, a free core resumes it through one push and
        # a queued hold on the push its grant makes
        if cpu.cores.acquire(self, self.granted):
            cpu.sim._call_soon1(self.granted, None)

    def granted(self, _) -> None:
        sim = self.cpu.sim
        self.t0 = sim.now
        sim._call_soon1(self.done, None, delay=self.duration_ns)

    def done(self, _) -> None:
        cpu = self.cpu
        sim = cpu.sim
        d = self.duration_ns
        cpu.busy_ns += d
        cpu.cores.release(self)
        tel = sim.telemetry
        if tel.enabled:
            tel.span(
                f"cpu {d:.0f}ns",
                pid=cpu._pid,
                tid="cpu",
                t0=self.t0,
                t1=sim.now,
                cat="host",
                trace=self.trace,
                phase="cpu",
            )
            busy, cores_busy = cpu._handles.get(tel.metrics)
            busy.inc(d)
            cores_busy.set(sim.now, cpu.cores.count)
        self.then(self.arg)


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
        """Generator: occupy one core for ``duration_ns``
        (``yield from cpu.run(t)`` inside a process).

        A thin wrapper over :class:`CoreHold` that resumes the process inline
        from the hold's release, so the heap positions match a hold made
        by a callback chain.
        """
        done = self.sim.event("cpu.run")
        CoreHold(self, duration_ns, done.succeed_inline, None, trace, None)
        yield done

    def utilisation(self) -> float:
        return self.cores.utilisation()
