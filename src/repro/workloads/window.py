"""The measured window and the finish step the load engines share.

Both load engines — closed (:func:`repro.workloads.run_closed_loop`)
and open (:func:`repro.workloads.run_open_loop`) — count an operation
only if it *completes* inside the window ``[t_warm, t_stop)``: the
warm-up before it and the drain after it are simulated but not
measured.  :class:`WindowStats` records those operations (one per
closed-loop client, one per open-loop run) and turns them into rates;
:func:`finish` ends every run the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from ..simnet.trace import summarize

__all__ = ["WindowStats", "latency_summary", "finish"]


class Rates:
    """Throughput of ``ops`` operations and ``bytes`` bytes measured
    over ``measure_ns``."""

    ops: int
    bytes: int
    measure_ns: float

    @property
    def kops_per_s(self) -> float:
        return self.ops / self.measure_ns * 1e6 if self.measure_ns else 0.0

    @property
    def goodput_gbps(self) -> float:
        return self.bytes * 8.0 / self.measure_ns if self.measure_ns else 0.0


@dataclass
class WindowStats(Rates):
    """Operations issued, and those completing inside
    ``[t_warm, t_stop)``: successes with their bytes and latencies, and
    failures (excluded from the latency statistics)."""

    t_warm: float
    t_stop: float
    measure_ns: float
    ops: int = 0
    bytes: int = 0
    issued: int = 0
    failures: int = 0
    latencies: List[float] = field(default_factory=list)

    def covers(self, t: float) -> bool:
        return self.t_warm <= t < self.t_stop

    def record(self, now: float, out: Any, nbytes: int) -> bool:
        """Count one completion with outcome ``out`` at ``now``; return
        whether it succeeded (an outcome without ``ok`` did)."""
        ok = bool(getattr(out, "ok", True))
        if self.covers(now):
            if not ok:
                self.failures += 1
            else:
                self.ops += 1
                self.bytes += nbytes
                lat = getattr(out, "latency_ns", None)
                if lat is not None:
                    self.latencies.append(lat)
        return ok

    def summary(self) -> dict:
        """Latency statistics plus counts and rates (a per-client row)."""
        out = latency_summary([self])
        out["ops"] = self.ops
        out["issued"] = self.issued
        out["failures"] = self.failures
        out["kops_per_s"] = self.kops_per_s
        out["goodput_gbps"] = self.goodput_gbps
        return out


def latency_summary(windows: Iterable[WindowStats]) -> dict:
    """:func:`~repro.simnet.trace.summarize` over the measured latencies
    of ``windows``."""
    return summarize([lat for w in windows for lat in w.latencies])


def finish(
    testbed: Any, procs: List, windows: Sequence[WindowStats]
) -> Tuple[float, bool, dict, Optional[dict]]:
    """End a load run: run ``procs`` to completion, note the time, drain
    the testbed, and summarize what ``windows`` measured.

    Returns ``(t_done, quiesced, latency, phase_latency)``: ``t_done`` is
    the instant the last process finished, ``quiesced`` whether
    :meth:`~repro.dfs.cluster.Testbed.drain` reached
    :meth:`~repro.dfs.cluster.Testbed.idle`, and ``phase_latency`` the
    per-phase anatomy (:func:`repro.telemetry.phase_summary` shape) of
    the operations that completed ok inside the window — None unless the
    testbed runs with telemetry and such operations exist.  Raises
    :class:`~repro.telemetry.anatomy.AnatomyError` when a request's phases
    miss its end-to-end latency.
    """
    sim = testbed.sim
    sim.run_until_event(sim.all_of(procs))
    t_done = sim.now
    quiesced = testbed.drain()
    phase_latency = None
    tel = sim.telemetry
    if tel.enabled:
        from ..telemetry.anatomy import decompose, phase_summary

        measured = [op for op in decompose(tel) if op.ok and windows[0].covers(op.t1)]
        if measured:
            phase_latency = phase_summary(measured)
    return t_done, quiesced, latency_summary(windows), phase_latency
