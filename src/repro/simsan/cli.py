"""``python -m repro sanitize`` — run the scenario matrix under the sanitizer.

Every scenario (quick variants unless ``--full``) runs through
:func:`repro.scenarios.run_scenario` with ``sanitize=True``; the exit
status is 0 only when every run is finding-free and quiesced.  The
protocol points run sanitized in ``python -m repro demo``.
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


def main(argv: Optional[list] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro sanitize",
        description="Run the scenario matrix under the repro.simsan runtime "
                    "sanitizer (schedule races, leaks, orphaned spans). "
                    "Exit 0 = clean.")
    ap.add_argument("--full", action="store_true",
                    help="full-size scenarios (default: quick variants)")
    ap.add_argument("--seed", type=_int_at_least(0), default=None,
                    help="seed override (default: per-point sweep seeds)")
    return _run_matrix(ap.parse_args(argv))
