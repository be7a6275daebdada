"""``python -m repro sanitize`` — run workloads under the sanitizer.

Two modes, both exiting 0 only when every run is finding-free:

* default: the scenario matrix (quick variants unless ``--full``)
  through :func:`repro.scenarios.run_scenario` with ``sanitize=True``;
  a scenario that did not quiesce fails too;
* ``--demo``: one protocol point (replicated spin write), optionally
  under seeded faults — the CI stage runs this with ``--loss``.
"""

from __future__ import annotations

import argparse
from typing import Optional

from ..__main__ import _int_at_least

__all__ = ["main"]


def _run_matrix(args) -> int:
    from ..runner import point_seed
    from ..scenarios import MATRIX_NAMES, get, run_scenario

    failures = 0
    for name in MATRIX_NAMES:
        spec = get(name, quick=not args.full)
        seed = args.seed if args.seed is not None else point_seed(
            "scenario_matrix", {"scenario": spec.name, "quick": not args.full}
        )
        timings: dict = {}
        row = run_scenario(spec, seed=seed, timings=timings, sanitize=True)
        report = timings["sanitizer"]
        status = "clean" if report.ok else f"{len(report.findings)} finding(s)"
        print(f"  {name:<18} {status:<18} "
              f"(events={timings['events']}, quiesced={row['quiesced']}, "
              f"digest={row['schedule_digest']})")
        if not report.ok:
            print(report.summary())
        if not (report.ok and row["quiesced"]):
            failures += 1
    if failures:
        print(f"\nsanitize: FAIL — {failures}/{len(MATRIX_NAMES)} scenarios "
              f"reported findings or did not quiesce")
        return 1
    print(f"\nsanitize: {len(MATRIX_NAMES)} scenarios clean")
    return 0


def _run_demo(params, args) -> int:
    import numpy as np

    from ..dfs.client import DfsClient
    from ..dfs.cluster import build_testbed
    from ..dfs.layout import ReplicationSpec
    from ..experiments.common import installer_for

    tb = build_testbed(n_storage=8, params=params, telemetry=True,
                       sanitize=True)
    installer = installer_for(args.protocol)
    if installer is not None:
        installer(tb)
    c = DfsClient(tb)
    data = np.random.default_rng(0).integers(0, 256, 64 * 1024, dtype=np.uint8)
    c.create("/san", size=data.nbytes, replication=ReplicationSpec(k=3))
    for _ in range(3):  # very lossy links can exhaust transport retries
        out = c.write_sync("/san", data, protocol=args.protocol)
        if out.ok:
            break
    assert out.ok, out.nacks
    # drain trailing acks, retransmit watchdogs and accelerator message
    # runs (a late duplicate can re-open a run that only closes once the
    # transport re-delivers its header) before the leak sweep
    tb.drain()
    report = tb.sanitize_report()
    print(f"demo: {args.protocol} k=3 write "
          f"(loss={args.loss:g}, corrupt={args.corrupt:g}), "
          f"{tb.sim.events_dispatched} events")
    print(report.summary())
    return 0 if report.ok else 1


def main(argv: Optional[list] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro sanitize",
        description="Run workloads under the repro.simsan runtime "
                    "sanitizer (schedule races, leaks, orphaned spans). "
                    "Exit 0 = clean.")
    ap.add_argument("--demo", action="store_true",
                    help="one replicated protocol write instead of the "
                         "scenario matrix (combine with --loss)")
    ap.add_argument("--protocol", default="spin",
                    help="--demo protocol (default spin)")
    ap.add_argument("--loss", type=float, default=0.0, metavar="P",
                    help="--demo per-packet drop probability")
    ap.add_argument("--corrupt", type=float, default=0.0, metavar="P",
                    help="--demo per-packet corruption probability")
    ap.add_argument("--full", action="store_true",
                    help="full-size scenarios (default: quick variants)")
    ap.add_argument("--seed", type=_int_at_least(0), default=None,
                    help="seed override (default: per-point sweep seeds)")
    args = ap.parse_args(argv)

    if args.demo:
        from ..params import SimParams

        params = SimParams()
        if args.loss or args.corrupt:
            try:
                params = params.with_faults(
                    loss_prob=args.loss, corrupt_prob=args.corrupt,
                    seed=args.seed or 0, retransmit=True,
                )
            except ValueError as e:
                ap.error(str(e))
        return _run_demo(params, args)
    return _run_matrix(args)
