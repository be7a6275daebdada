"""CLI for the experiment suite: ``python -m repro.experiments <id>``."""

from __future__ import annotations

import argparse
import sys
import time

from .. import runner
from ..__main__ import _int_at_least
from . import REGISTRY, run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    ap.add_argument("experiment", help="experiment id, 'list', or 'all'")
    ap.add_argument("--quick", action="store_true", help="reduced sweeps")
    ap.add_argument("--no-check", action="store_true", help="skip shape checks")
    ap.add_argument("--csv", metavar="PATH",
                    help="also write the raw rows as CSV (one file per "
                         "experiment; PATH gets an -<id> suffix for 'all')")
    ap.add_argument("--jobs", type=_int_at_least(1), default=1, metavar="N",
                    help="run sweep points over N worker processes "
                         "(deterministic: rows match --jobs 1 exactly)")
    ap.add_argument("--no-cache", action="store_true",
                    help="recompute every point, ignoring the result cache")
    ap.add_argument("--cache-dir", metavar="DIR",
                    help="result cache location (default: $REPRO_CACHE_DIR "
                         "or .repro_cache)")
    args = ap.parse_args(argv)

    if args.experiment == "list":
        for eid, mod in REGISTRY.items():
            print(f"{eid:16s} {mod.TITLE}")
        return 0

    ids = list(REGISTRY) if args.experiment == "all" else [args.experiment]
    status = 0
    for eid in ids:
        mod = REGISTRY.get(eid)
        if mod is None:
            print(f"unknown experiment {eid!r}; try 'list'", file=sys.stderr)
            return 2
        # elapsed-time reporting for the human running the sweep; the
        # monotonic clock is immune to NTP steps mid-experiment
        t0 = time.perf_counter()  # simlint: disable=SIM101 -- harness elapsed time
        before = runner.LAST_STATS
        rows = run(eid, quick=args.quick, jobs=args.jobs,
                   cache=not args.no_cache, cache_dir=args.cache_dir)
        # a sweep replaces LAST_STATS; a table leaves the previous one
        stats = runner.LAST_STATS
        note = f" ({stats.summary()})" if stats is not before else ""
        print(mod.render(rows))
        elapsed = time.perf_counter() - t0  # simlint: disable=SIM101 -- harness elapsed time
        print(f"[{eid}: {len(rows)} rows in {elapsed:.1f}s{note}]")
        if args.csv:
            path = args.csv
            if len(ids) > 1:
                stem, dot, ext = path.rpartition(".")
                path = f"{stem}-{eid}.{ext}" if dot else f"{path}-{eid}"
            _write_csv(path, rows)
            print(f"[{eid}: rows written to {path}]")
        if not args.no_check:
            try:
                mod.check(rows)
                print(f"[{eid}: all shape checks passed]")
            except AssertionError as e:
                print(f"[{eid}: SHAPE CHECK FAILED: {e}]", file=sys.stderr)
                status = 1
        print()
    return status


def _write_csv(path: str, rows: list[dict]) -> None:
    import csv

    cols: list[str] = []
    for r in rows:
        for k in r:
            if k not in cols:
                cols.append(k)
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=cols)
        w.writeheader()
        w.writerows(rows)


if __name__ == "__main__":
    raise SystemExit(main())
