"""The benchmark's five workloads, and the child process that runs one rep.

Every workload is composed from public entry points only
(``repro.scenarios.run_scenario``, ``repro.dfs.cluster.build_testbed``,
``repro.experiments.common.installer_for`` and
``repro.workloads.closed_loop_write_load``).  The layers are measured
from outside: a wrapper around ``Simulator.run_until_event`` marks where
set-up ends, the objects' public counters are read after the run, and
``--trace`` profiles the rep under stdlib ``cProfile``.

Run as a script, this module runs ONE rep of one workload in the current
interpreter and prints one JSON object on stdout.  ``bench/run.py``
starts a fresh interpreter per rep so that set-up time and peak RSS are
those of a cold process::

    PYTHONPATH=src python bench/workloads.py --workload incast --seed 1

Importing this module imports nothing from ``repro``; the parent
orchestrator only needs the workload names.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import hashlib
import json
import resource
import signal
import sys
import time
from typing import Any, Callable, Dict, Optional

KiB = 1024

#: name -> (loop kind, why it is in the benchmark)
WORKLOADS: Dict[str, tuple] = {
    "million_users": (
        "open",
        "10^6 Zipf users, 8 s cut of hot_shard_1m: set-up and the workload "
        "generators dominate",
    ),
    "incast": (
        "open",
        "synchronized 2 KiB bursts from 20k users: switch/NIC queues and HPU "
        "scheduling under contention",
    ),
    "rpc_onoff": (
        "open",
        "host-RPC protocol, self-similar on/off users: host CPU path with no "
        "accelerator work (control workload)",
    ),
    "replicated_64k": (
        "closed",
        "16x2 closed-loop 64 KiB 3-way replicated sPIN writes: saturated "
        "links keep cutting packet trains",
    ),
    "lossy_telemetry": (
        "open",
        "hot shard at loss 5e-4 with telemetry and SLO budgets: per-packet "
        "slow path, retransmits, telemetry",
    ),
}

#: horizons (simulated ns) of the open-loop cuts; None keeps the builtin's
_OPEN = {
    "million_users": ("hot_shard_1m", 8e9),
    "incast": ("incast", None),
    "rpc_onoff": ("uniform_onoff", 300e6),
    "lossy_telemetry": ("hot_shard_lossy", 250e6),
}

#: replicated_64k: write size, and the measured window of the closed loop
#: (simulated ns) -- ~1,000 measured writes, so p99 has 10 samples beyond
_REPLICATED_BYTES = 64 * KiB
_REPLICATED_MEASURE_NS = 0.55e6

#: --quick shrinks every workload about this much
QUICK_FACTOR = 20


# ----------------------------------------------------------------- probes
class _Probe:
    """Wraps public entry points for the duration of one rep.

    ``run_until_event``'s first call ends set-up; ``build_testbed`` and
    ``open_loop_write_load`` are wrapped only to keep a handle on the
    testbed and on the unrounded open-loop result.
    """

    def __init__(self, cpu_clock: Callable[[], float]) -> None:
        self.cpu_clock = cpu_clock
        self.t_first_run: Optional[float] = None
        self.cpu_first_run: Optional[float] = None
        self.testbed: Any = None
        self.open_result: Any = None
        self._undo: list = []

    def _patch(self, owner: Any, name: str, make: Callable[[Any], Any]) -> None:
        orig = getattr(owner, name)
        setattr(owner, name, make(orig))
        self._undo.append((owner, name, orig))

    def __enter__(self) -> "_Probe":
        import repro.dfs.cluster as cluster
        import repro.workloads.openloop as openloop
        from repro.simnet.engine import Simulator

        probe = self

        def wrap_ruve(orig):
            def run_until_event(sim, ev, limit=None):
                if probe.t_first_run is None:
                    probe.t_first_run = time.perf_counter()
                    probe.cpu_first_run = probe.cpu_clock()
                return orig(sim, ev, limit)
            return run_until_event

        def wrap_build(orig):
            def build_testbed(*a, **kw):
                probe.testbed = orig(*a, **kw)
                return probe.testbed
            return build_testbed

        def wrap_load(orig):
            def open_loop_write_load(*a, **kw):
                res, counts = orig(*a, **kw)
                probe.open_result = res
                return res, counts
            return open_loop_write_load

        self._patch(Simulator, "run_until_event", wrap_ruve)
        self._patch(cluster, "build_testbed", wrap_build)
        self._patch(openloop, "open_loop_write_load", wrap_load)
        return self

    def __exit__(self, *exc: Any) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)


#: the calibration chunk's preallocated inputs: the chunk creates no object
#: the cyclic garbage collector tracks, so it does not shift the run's
#: collections (the simulated results do not depend on when collections
#: happen either: they are identical with gc disabled or at threshold 50)
_CAL_FLOATS = [((i * 7919) % 4099) * 0.37 for i in range(2048)]
_CAL_LIST = list(_CAL_FLOATS)
_CAL_DICT = dict.fromkeys(range(512), 0)


#: the calibration chunk's CPU time that defines the reference host speed
#: (a fixed unit: about what the chunk takes between simulation slices on
#: an unloaded core of the 2-vCPU Xeon host the baseline was recorded on)
CALIBRATION_REF_S = 0.35e-3


def calibration_chunk() -> float:
    """CPU seconds of one fixed pure-Python chunk (a list sort and dict
    updates, 0.3-0.4 ms on an idle core).  It shares no code with the
    simulator, so it measures only how fast the host runs Python right
    now."""
    c = time.thread_time()
    buf = _CAL_LIST
    buf[:] = _CAL_FLOATS
    buf.sort()
    d = _CAL_DICT
    for i in range(1500):
        k = (i * 31) & 511
        d[k] = (d[k] + i) & 0xFFFF
    return time.thread_time() - c


class _HostClock:
    """The rep's CPU clock, and its conversion to reference-speed seconds.

    Other tenants of a shared host slow its Python by 10-100%, in
    stretches from a fraction of a second to minutes.  Every 20 ms of CPU
    time a SIGPROF handler runs one calibration chunk, which slows down
    with the host, and records ``(clock, chunk seconds)``; its own CPU
    time is taken off the clock.  :meth:`ref_seconds` then charges each
    stretch between samples as if the chunks around it had taken
    ``CALIBRATION_REF_S``.  The handler touches no simulator state.

    The clock is the thread CPU clock (the rep is single-threaded): CPU
    time ignores preemption, and while a process-wide CPU timer is armed
    Linux advances the process CPU clock only at scheduler ticks.
    ``sampling=False`` (traced reps) keeps only a few chunks taken up
    front: handler calls would enter the profile's call counts.
    """

    INTERVAL_S = 0.02

    def __init__(self, sampling: bool) -> None:
        self.sampling = sampling
        self.spent = 0.0
        self.samples = [(self.cpu(), calibration_chunk()) for _ in range(5)]

    def cpu(self) -> float:
        return time.thread_time() - self.spent

    def _tick(self, _signum: int, _frame: Any) -> None:
        t_in = time.thread_time()
        self.samples.append((t_in - self.spent, calibration_chunk()))
        self.spent += time.thread_time() - t_in

    def ref_seconds(self, t_from: float, t_to: float) -> float:
        """Reference-speed seconds between two readings of :meth:`cpu`:
        each stretch up to a sample counts at the median speed of the five
        chunks around that sample."""
        cpus = [c for c, _ in self.samples]
        chunks = [k for _, k in self.samples]
        cuts = [t_from] + [c for c in cpus if t_from < c < t_to] + [t_to]
        total = 0.0
        for a, b in zip(cuts, cuts[1:]):
            i = min(bisect.bisect_left(cpus, b), len(cpus) - 1)
            near = sorted(chunks[max(0, i - 2):i + 3])
            total += (b - a) * CALIBRATION_REF_S / near[len(near) // 2]
        return total

    def __enter__(self) -> "_HostClock":
        if self.sampling:
            signal.signal(signal.SIGPROF, self._tick)
            signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        if self.sampling:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, signal.SIG_DFL)


# -------------------------------------------------------------- workloads
def open_spec(name: str, quick: bool):
    """The ScenarioSpec an open-loop workload runs."""
    from repro.scenarios import get

    builtin, horizon_ns = _OPEN[name]
    spec = get(builtin)
    w = spec.workload
    if horizon_ns is not None:
        # keep the builtin's warm-up share of the horizon
        scale = horizon_ns / w.horizon_ns
        w = dataclasses.replace(
            w, warmup_ns=w.warmup_ns * scale, measure_ns=w.measure_ns * scale
        )
    if quick:
        w = dataclasses.replace(w, n_users=w.n_users // QUICK_FACTOR)
    return dataclasses.replace(spec, workload=w)


def _run_open(name: str, seed: int, quick: bool, probe: _Probe) -> dict:
    from repro.scenarios import run_scenario

    spec = open_spec(name, quick)
    row = run_scenario(spec, seed=seed)
    res = probe.open_result
    out = {
        "issued": res.issued,
        "failed": res.failures_total,
        "latency": res.latency,
        "goodput_gbps": res.goodput_gbps,
        "digest": row["schedule_digest"],
        "checks": {"quiesced": res.quiesced},
    }
    if spec.slo_budgets:
        out["checks"]["slo_ok"] = bool(row["slo_ok"])
    if res.phase_latency is not None:
        out["phase_p99_ns"] = {
            phase: s["p99"] for phase, s in res.phase_latency.items()
        }
    return out


def _run_replicated(seed: int, quick: bool) -> dict:
    from repro.dfs.cluster import build_testbed
    from repro.dfs.layout import ReplicationSpec
    from repro.experiments.common import installer_for
    from repro.workloads import LoadSpec, closed_loop_write_load

    measure = _REPLICATED_MEASURE_NS / (QUICK_FACTOR if quick else 1)
    tb = build_testbed(n_storage=8, n_clients=4)
    installer_for("spin")(tb)
    # a 1 us exponential think time staggers the slots, so the schedule
    # (and every simulated result) depends on the seed
    spec = LoadSpec(n_clients=16, outstanding=2, think_ns=1_000.0,
                    warmup_ns=50_000.0, measure_ns=measure, seed=seed)
    res = closed_loop_write_load(tb, _REPLICATED_BYTES, "spin", spec,
                                 replication=ReplicationSpec(k=3))
    # the closed loop has no request-schedule digest: hash its result
    h = hashlib.sha256(json.dumps(
        [res.issued, res.ops, res.bytes, res.failures, res.elapsed_ns,
         res.latency, res.per_client], sort_keys=True).encode())
    return {
        "issued": res.issued,
        "failed": res.failures,
        "latency": res.latency,
        "goodput_gbps": res.goodput_gbps,
        "digest": h.hexdigest()[:16],
        "checks": {"quiesced": res.quiesced},
    }


def _check_replicas(tb, seed: int) -> bool:
    """Every replica of every object holds exactly the written payload."""
    from repro.workloads import payload_bytes

    want = payload_bytes(_REPLICATED_BYTES, seed=seed)
    for _path, layout in tb.metadata.objects():
        for ext in layout.extents:
            got = tb.node(ext.node).memory.read(ext.addr, _REPLICATED_BYTES)
            if not (got == want).all():
                return False
    return True


# --------------------------------------------------------------- counters
def counters(tb, issued: int) -> Dict[str, float]:
    """Per-layer counters read from the testbed's public attributes."""
    sim = tb.sim
    now = sim.now or 1.0
    hosts = list(tb.storage_nodes) + list(tb.clients)
    ports = []
    for name, ep in tb.net.endpoints.items():
        ports += [ep.port, tb.net.switch.out_port(name)]
    tx_packets = sum(p.tx_packets for p in ports)
    accels = [n.accelerator for n in tb.storage_nodes if n.accelerator is not None]
    cores = sum(h.cpu.params.cpu_cores for h in hosts)
    per_req = 1.0 / max(issued, 1)
    return {
        "simnet.engine.events_per_req": sim.events_dispatched * per_req,
        "simnet.engine.heap_high_water": sim.heap_high_water,
        "simnet.network.packets_per_req": tx_packets * per_req,
        "simnet.network.tx_packets": tx_packets,
        "simnet.network.max_port_util": max(p.busy_ns for p in ports) / now,
        "pspin.packets_per_req": sum(a.packets_processed for a in accels) * per_req,
        "pspin.drops": sum(a.packets_dropped for a in accels),
        "pspin.nacks": sum(a.nacks_sent for a in accels),
        "hostsim.cpu_busy_share": sum(h.cpu.busy_ns for h in hosts) / (cores * now),
        "hostsim.pcie_bytes_per_req":
            sum(h.pcie.bytes_transferred for h in hosts) * per_req,
        "rdma.retransmits": sum(h.nic.retransmits for h in hosts),
        "rdma.timeouts": sum(h.nic.timeouts for h in hosts),
        "faults.drops": tb.faults.drops if tb.faults is not None else 0,
    }


# -------------------------------------------------------------------- rep
def run_rep(name: str, seed: int, quick: bool = False, trace: bool = False) -> dict:
    """One rep: set-up, run, checks, counters (and the profile)."""
    # every module the workload imports lazily, so set-up excludes imports
    import repro.dfs.cluster  # noqa: F401
    import repro.dfs.layout  # noqa: F401
    import repro.experiments.common  # noqa: F401
    import repro.protocols  # noqa: F401
    import repro.scenarios  # noqa: F401
    import repro.simnet.trace  # noqa: F401
    import repro.slo  # noqa: F401
    import repro.telemetry.anatomy  # noqa: F401
    import repro.workloads  # noqa: F401

    profiler = None
    if trace:
        import cProfile

        profiler = cProfile.Profile()
    clock = _HostClock(sampling=profiler is None)
    with _Probe(clock.cpu) as probe, clock:
        t0, c0 = time.perf_counter(), clock.cpu()
        if profiler is not None:
            profiler.enable()
        if name == "replicated_64k":
            out = _run_replicated(seed, quick)
        else:
            out = _run_open(name, seed, quick, probe)
        if profiler is not None:
            profiler.disable()
        t1, c1 = time.perf_counter(), clock.cpu()
    tb = probe.testbed
    if name == "replicated_64k":
        out["checks"]["replicas_match_payload"] = _check_replicas(tb, seed)
    out.update(
        workload=name,
        seed=seed,
        quick=quick,
        setup_s=probe.t_first_run - t0,
        run_s=t1 - probe.t_first_run,
        setup_cpu_s=probe.cpu_first_run - c0,
        run_cpu_s=c1 - probe.cpu_first_run,
        setup_ref_s=clock.ref_seconds(c0, probe.cpu_first_run),
        run_ref_s=clock.ref_seconds(probe.cpu_first_run, c1),
        calibration_s=[k for _, k in clock.samples],
        sim_end_ns=tb.sim.now,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        counters=counters(tb, out["issued"]),
    )
    if profiler is not None:
        import pstats

        from layers import fold_profile

        out["profile"] = fold_profile(pstats.Stats(profiler).stats, out["issued"])
    return out


def main(argv: Optional[list] = None) -> int:
    ap = argparse.ArgumentParser(description="Run one rep of one benchmark workload.")
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    out = run_rep(args.workload, args.seed, quick=args.quick, trace=args.trace)
    sys.stdout.write(json.dumps(out, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
