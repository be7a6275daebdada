"""Simulator performance snapshot and regression guard.

``python -m repro perf`` collects these wall-clock figures of merit:

* **kernel** — raw timeout-schedule-dispatch event throughput of the
  discrete-event engine (no network stack);
* **pipeline** — a burst of steady-state full-stack 64 KiB sPIN writes:
  per-write events dispatched, packets through the switch, and the
  derived events-per-packet cost of the packet pipeline; plus the
  telemetry-off / telemetry-on time ratio of a replicated spin write,
  which must stay at or below :data:`TELEMETRY_OFF_ON_CAP` (collection
  must cost nothing when off);
* **sweep** — a small experiment sweep run serially and with two worker
  processes, recording the parallel speedup of :mod:`repro.runner`;
* **workload** — the million-user open-loop ``hot_shard_1m`` scenario
  through the aggregated flow generators: simulated-users and kernel
  events per wall-second on one core, plus the schedule digest as a
  determinism gate.

``--section`` restricts both collection and checking (CI gates the
machine-sensitive kernel number at a tight tolerance without paying for
the full suite).

``--out BENCH_simulator.json`` snapshots the numbers;
``--check BENCH_simulator.json`` re-measures and fails (exit 1) if the
machine-independent event counts grew or throughput dropped below
``(1 - tolerance)`` of the committed baseline.  Events-per-packet is
deterministic, so it gets a tight 5% bound; throughput numbers get the
wide default (30%).  The telemetry ratio compares two runs on the same
host, so its cap applies on any host, baseline or not.  Kernel and pipeline throughput are timed with
``time.process_time`` — per consumed CPU second, which equals wall time
on a quiet machine but stays stable when a shared CI box throttles or
preempts the process (the sweep comparison is genuinely wall-clock:
it measures multi-process parallelism).

Wall-clock floors only mean something on the host that recorded the
baseline: when ``meta.cpus_affinity`` or ``meta.python`` differs,
``--check`` skips them, prints which values differ, still runs the
deterministic checks (events per packet, schedule digest) and exits 2
if those pass.
"""

from __future__ import annotations

# simlint: disable-file=SIM101 -- this module IS the wall-clock harness:
# it measures the simulator's own event throughput per CPU second

import argparse
import json
import os
import platform
import time
from typing import Any, Dict, List, Optional

__all__ = ["collect_snapshot", "check_against", "host_mismatch", "main"]


def _kernel_events_per_s(repeats: int = 8) -> float:
    """Best-of-N event throughput of the bare engine: ten processes
    each sleeping 2000 one-nanosecond timeouts.  The first run is
    interpreter warm-up and is discarded."""
    from .simnet import Simulator

    def once() -> float:
        sim = Simulator()

        def ping(n):
            for _ in range(n):
                yield sim.timeout(1.0)

        for _ in range(10):
            sim.process(ping(2000))
        t0 = time.process_time()
        sim.run()
        return sim.events_dispatched / (time.process_time() - t0)

    once()  # warm-up
    return max(once() for _ in range(repeats))


def _pipeline_snapshot(repeats: int = 5, inner: int = 10) -> Dict[str, Any]:
    """Steady-state 64 KiB sPIN writes through the full NIC/accelerator
    stack.  Event and packet counts are deterministic per write; wall
    time is best-of-N over a burst of ``inner`` writes — coalescing made
    a single write sub-millisecond, too short to time reliably."""
    import numpy as np

    from .dfs.client import DfsClient
    from .dfs.cluster import build_testbed
    from .protocols import install_spin_targets

    events = packets = 0
    best_wall = float("inf")
    data = np.zeros(64 * 1024, np.uint8)
    for _ in range(repeats):
        tb = build_testbed(n_storage=2)
        install_spin_targets(tb)
        c = DfsClient(tb)
        c.create("/f", size=64 * 1024)
        assert c.write_sync("/f", data, protocol="spin").ok  # warm-up
        ev0, pk0 = tb.sim.events_dispatched, tb.net.switch.rx_packets
        t0 = time.process_time()
        for _ in range(inner):
            out = c.write_sync("/f", data, protocol="spin")
        wall = (time.process_time() - t0) / inner
        assert out.ok
        events = (tb.sim.events_dispatched - ev0) // inner
        packets = (tb.net.switch.rx_packets - pk0) // inner
        best_wall = min(best_wall, wall)
    return {
        "events": events,
        "packets": packets,
        "events_per_packet": round(events / packets, 3),
        "events_per_wall_s": round(events / best_wall),
        "packets_per_wall_s": round(packets / best_wall),
        "telemetry_off_on_ratio": _telemetry_off_on_ratio(),
    }


#: telemetry-off time may exceed telemetry-on time by at most 3%: every
#: instrumentation site must be one attribute load and a branch when off
TELEMETRY_OFF_ON_CAP = 1.03


def _replicated_write_s(telemetry: bool) -> float:
    """CPU seconds of eight 64 KiB 3-way replicated spin writes."""
    import numpy as np

    from .dfs.client import DfsClient
    from .dfs.cluster import build_testbed
    from .dfs.layout import ReplicationSpec
    from .protocols import install_spin_targets

    tb = build_testbed(n_storage=4, telemetry=telemetry)
    install_spin_targets(tb)
    c = DfsClient(tb)
    c.create("/f", size=128 * 1024, replication=ReplicationSpec(k=3))
    data = np.zeros(64 * 1024, np.uint8)
    t0 = time.process_time()
    for _ in range(8):
        assert c.write_sync("/f", data, protocol="spin").ok
    return time.process_time() - t0


def _telemetry_off_on_ratio(repeats: int = 5) -> float:
    """Min-of-N time with telemetry off over min-of-N with it on.  On
    does strictly more work, so a ratio above 1 beyond noise means the
    disabled path got slower.  The two sides are interleaved so drift
    in clock speed or cache state hits both."""
    off, on = [], []
    for _ in range(repeats):
        off.append(_replicated_write_s(telemetry=False))
        on.append(_replicated_write_s(telemetry=True))
    return round(min(off) / min(on), 3)


def _sweep_snapshot(jobs: int = 2) -> Dict[str, Any]:
    """Serial vs parallel wall time for a sweep heavy enough that pool
    startup does not dominate (fig09 --quick)."""
    from .experiments import fig09_replication_latency as mod

    t0 = time.perf_counter()
    rows_serial = mod.run(quick=True, jobs=1, cache=False)
    serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    rows_par = mod.run(quick=True, jobs=jobs, cache=False)
    par = time.perf_counter() - t0
    assert json.dumps(rows_serial, sort_keys=True) == json.dumps(rows_par, sort_keys=True)
    from .runner import LAST_STATS

    return {
        "experiment": mod.ID,
        "points": len(rows_serial),
        "jobs": jobs,
        # effective worker count after the runner's cpu/point clamping
        "cpus_used": LAST_STATS.jobs,
        "serial_wall_s": round(serial, 3),
        "parallel_wall_s": round(par, 3),
        "speedup": round(serial / par, 2) if par > 0 else 0.0,
    }


def _physical_cpus() -> Optional[int]:
    """Distinct (physical id, core id) pairs from /proc/cpuinfo, or None
    when the platform does not expose it (SMT makes this differ from the
    logical count)."""
    pairs = set()
    phys = core = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if ":" not in line:
                    phys = core = None
                    continue
                key, _, val = line.partition(":")
                key = key.strip()
                if key == "physical id":
                    phys = val.strip()
                elif key == "core id":
                    core = val.strip()
                if phys is not None and core is not None:
                    pairs.add((phys, core))
                    phys = core = None
    except OSError:
        return None
    return len(pairs) or None


def _meta() -> Dict[str, Any]:
    try:
        affinity: Optional[int] = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        affinity = None
    try:
        loadavg: Optional[List[float]] = [round(x, 2) for x in os.getloadavg()]
    except OSError:  # pragma: no cover - non-POSIX
        loadavg = None
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        # the sweep pool's speedup is bounded by these; on a 1-CPU box
        # extra workers can only
        # add overhead — record all of it so a snapshot says what the
        # box could possibly have delivered
        "cpus": os.cpu_count(),
        "cpus_logical": os.cpu_count(),
        "cpus_physical": _physical_cpus(),
        "cpus_affinity": affinity,
        "loadavg": loadavg,
    }


def _workload_snapshot() -> Dict[str, Any]:
    """The acceptance monster: the 1,000,000-user ``hot_shard_1m``
    open-loop scenario (three simulated minutes of Zipf-skewed traffic
    through the aggregated flow generators) on one core.  Records how
    many simulated users and kernel events one wall-second buys."""
    from .runner import point_seed
    from .scenarios import get, run_scenario

    spec = get("hot_shard_1m")
    seed = point_seed("scenario_matrix",
                      {"scenario": spec.name, "quick": False})
    timings: Dict[str, Any] = {}
    t0 = time.perf_counter()
    row = run_scenario(spec, seed=seed, timings=timings)
    wall = time.perf_counter() - t0
    return {
        "scenario": spec.name,
        "n_users": spec.workload.n_users,
        "sim_seconds": round(spec.workload.horizon_ns / 1e9, 1),
        "issued": row["issued"],
        "ops": row["ops"],
        "hot_share": row["hot_share"],
        "events": timings["events"],
        "wall_s": round(wall, 1),
        "users_per_wall_s": round(spec.workload.n_users / wall),
        "requests_per_wall_s": round(row["issued"] / wall),
        "events_per_wall_s": round(timings["events"] / wall),
        "schedule_digest": row["schedule_digest"],
    }


SECTIONS = ("kernel", "pipeline", "sweep", "workload")


def collect_snapshot(sweep_jobs: int = 2,
                     sections: Optional[List[str]] = None) -> Dict[str, Any]:
    want = set(sections or SECTIONS)
    snap: Dict[str, Any] = {"meta": _meta()}
    if "kernel" in want:
        snap["kernel_events_per_s"] = round(_kernel_events_per_s())
    if "pipeline" in want:
        snap["pipeline"] = _pipeline_snapshot()
    if "sweep" in want:
        snap["sweep"] = _sweep_snapshot(jobs=sweep_jobs)
    if "workload" in want:
        snap["workload"] = _workload_snapshot()
    return snap


#: host facts a wall-clock baseline is only comparable under
HOST_KEYS = ("cpus_affinity", "python")


def host_mismatch(snap: Dict[str, Any], base: Dict[str, Any]) -> Optional[str]:
    """One line naming every :data:`HOST_KEYS` value that differs between
    the snapshot's host and the baseline's, or None when they match."""
    got, want = snap.get("meta", {}), base.get("meta", {})
    diffs = [f"{k} {got.get(k)} (baseline {want.get(k)})"
             for k in HOST_KEYS if got.get(k) != want.get(k)]
    return "host differs from baseline: " + ", ".join(diffs) if diffs else None


def check_against(snap: Dict[str, Any], base: Dict[str, Any],
                  tolerance: float = 0.30) -> List[str]:
    """Compare a fresh snapshot against a committed baseline.  Returns a
    list of human-readable failures (empty = pass).  Sections absent
    from either side (``--section``) are skipped, and so are the
    wall-clock floors when :func:`host_mismatch` finds a different host
    (the deterministic counts are checked either way)."""
    failures: List[str] = []
    wall_clock = host_mismatch(snap, base) is None

    def floor(name: str, got: float, want: float, tol: float = tolerance) -> None:
        if wall_clock and got < want * (1.0 - tol):
            failures.append(
                f"{name}: {got:,.0f} < {(1 - tol):.0%} of baseline {want:,.0f}"
            )

    # the bare-kernel microbenchmark is the most frequency/SMT-sensitive
    # number (tens of ms of pure dispatch); give it double headroom
    if "kernel_events_per_s" in snap and "kernel_events_per_s" in base:
        floor("kernel_events_per_s", snap["kernel_events_per_s"],
              base["kernel_events_per_s"], tol=min(2 * tolerance, 0.9))
    if "pipeline" in snap and "pipeline" in base:
        floor("pipeline.events_per_wall_s",
              snap["pipeline"]["events_per_wall_s"],
              base["pipeline"]["events_per_wall_s"])

        # deterministic counts: any growth is a real pipeline regression
        got_epp = snap["pipeline"]["events_per_packet"]
        base_epp = base["pipeline"]["events_per_packet"]
        if got_epp > base_epp * 1.05:
            failures.append(
                f"pipeline.events_per_packet: {got_epp} > baseline {base_epp} (+5% cap)"
            )
    ratio = snap.get("pipeline", {}).get("telemetry_off_on_ratio")
    if ratio is not None and ratio > TELEMETRY_OFF_ON_CAP:
        failures.append(
            f"pipeline.telemetry_off_on_ratio: {ratio} > {TELEMETRY_OFF_ON_CAP} "
            f"(telemetry costs time when off)"
        )
    if "workload" in snap and "workload" in base:
        floor("workload.users_per_wall_s",
              snap["workload"]["users_per_wall_s"],
              base["workload"]["users_per_wall_s"])
        floor("workload.events_per_wall_s",
              snap["workload"]["events_per_wall_s"],
              base["workload"]["events_per_wall_s"])
        # the schedule is a pure function of the spec + seed: any digest
        # drift is a determinism regression, not a perf one
        if snap["workload"]["schedule_digest"] != base["workload"]["schedule_digest"]:
            failures.append(
                "workload: schedule digest drifted from baseline "
                f"({snap['workload']['schedule_digest']} != "
                f"{base['workload']['schedule_digest']})"
            )
    return failures


def main(argv: Optional[list] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro perf",
        description="Measure simulator performance; snapshot or check a baseline.",
    )
    ap.add_argument("--out", metavar="PATH",
                    help="write the snapshot as JSON (e.g. BENCH_simulator.json)")
    ap.add_argument("--check", metavar="PATH",
                    help="compare against a committed baseline; exit 1 on "
                         "regression, 2 when the host differs from the "
                         "baseline's (wall-clock floors skipped)")
    ap.add_argument("--tolerance", type=float, default=0.30, metavar="FRAC",
                    help="allowed wall-clock slowdown vs baseline (default 0.30)")
    ap.add_argument("--sweep-jobs", type=int, default=2, metavar="N",
                    help="worker processes for the sweep comparison (default 2)")
    ap.add_argument("--section", action="append", choices=list(SECTIONS),
                    metavar="NAME", dest="sections",
                    help="collect/check only this section (repeatable); "
                         f"default: all of {', '.join(SECTIONS)}")
    args = ap.parse_args(argv)

    snap = collect_snapshot(sweep_jobs=args.sweep_jobs, sections=args.sections)
    if "kernel_events_per_s" in snap:
        print(f"kernel   : {snap['kernel_events_per_s']:,.0f} events/s")
    if "pipeline" in snap:
        pipe = snap["pipeline"]
        print(f"pipeline : {pipe['events_per_wall_s']:,.0f} events/s, "
              f"{pipe['packets_per_wall_s']:,.0f} packets/s, "
              f"{pipe['events_per_packet']} events/packet "
              f"({pipe['events']} events / {pipe['packets']} packets), "
              f"telemetry off/on {pipe['telemetry_off_on_ratio']}")
    if "sweep" in snap:
        sweep = snap["sweep"]
        print(f"sweep    : {sweep['experiment']} x{sweep['points']} serial "
              f"{sweep['serial_wall_s']}s vs jobs={sweep['jobs']} "
              f"{sweep['parallel_wall_s']}s ({sweep['speedup']}x)")
    if "workload" in snap:
        wl = snap["workload"]
        print(f"workload : {wl['scenario']}: {wl['n_users']:,} users / "
              f"{wl['sim_seconds']}s sim in {wl['wall_s']}s wall — "
              f"{wl['users_per_wall_s']:,} users/s, "
              f"{wl['requests_per_wall_s']:,} req/s, "
              f"{wl['events_per_wall_s']:,} events/s")

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(snap, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"snapshot written to {args.out}")

    if args.check:
        with open(args.check) as fh:
            base = json.load(fh)
        failures = check_against(snap, base, tolerance=args.tolerance)
        if failures:
            print("PERF REGRESSION:")
            for f in failures:
                print(f"  - {f}")
            return 1
        mismatch = host_mismatch(snap, base)
        if mismatch is not None:
            print(f"{mismatch}; wall-clock floors skipped, "
                  f"deterministic checks passed")
            return 2
        print(f"perf check vs {args.check} passed "
              f"(tolerance {args.tolerance:.0%} on wall-clock, 5% on events/packet, "
              f"telemetry off/on <= {TELEMETRY_OFF_ON_CAP})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
