"""Compare two benchmark results, or record the baseline.

    python bench/compare.py A.json B.json
    python bench/compare.py --record A.json B.json [MORE.json ...]

``A.json`` and ``B.json`` are ``bench/run.py --out`` files of the same
seed, A the parent and B the change.  One row per workload marks each
end-to-end metric:

* ``regressed``  -- B's median is worse than A's by more than the
  metric's bound from ``BENCHMARK.json`` (for ``setup_s`` also by more
  than 0.1 s), and the reps resolve it;
* ``unresolved`` -- the spread between reps (quartile distance over the
  median) is wider than the bound, and not every rep of B is better than
  every rep of A;
* ``unchanged``  -- otherwise.

Host-time metrics are compared only when both results come from the same
CPU affinity and Python version; otherwise they are refused, and the
script says so.  Simulated (``sim_*``) metrics and the per-layer
``calls_per_req`` counts are deterministic: any difference is a failure.

Exit status: 0 when every metric is unchanged, 1 on any regressed,
unresolved or mismatched metric, 2 when host metrics were refused or the
inputs cannot be compared.

``--record`` writes ``bench/baseline.json`` from two full invocations at
the default seed: per-workload medians and quartiles, the per-layer
table, host metadata, schedule digests and the spread between the two
invocations.  Further results add the digests of ``--quick`` runs and,
from runs at other seeds, each metric's spread across seeds -- the
numbers the bounds in ``BENCHMARK.json`` were set from.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Tuple

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

from layers import LAYERS  # noqa: E402
from run import BASELINE, DEFAULT_SEED, HOST_METRICS, ROOT  # noqa: E402

#: setup_s regresses only when it also grows by more than this (seconds)
SETUP_FLOOR_S = 0.1


def load_bounds(path: str = os.path.join(ROOT, "BENCHMARK.json")) -> Dict[str, dict]:
    with open(path) as fh:
        return {m["name"]: m for m in json.load(fh)["end_to_end"]}


def host_mismatch(a: dict, b: dict) -> List[str]:
    """Reasons host-time metrics of ``a`` and ``b`` cannot be compared."""
    return [
        f"{key} {a['meta'].get(key)} != {b['meta'].get(key)}"
        for key in ("cpus_affinity", "python")
        if a["meta"].get(key) != b["meta"].get(key)
    ]


def host_verdict(spec: dict, a: dict, b: dict) -> Tuple[str, float]:
    """(verdict, relative change of the median, positive = worse).

    ``a`` and ``b`` carry the median (``value``) and quartiles of a host
    metric; "every rep better" reads as B's quartile range lying wholly
    on the better side of A's."""
    ma, mb = a["value"], b["value"]
    lower = spec["better"] == "lower"
    worse = (mb - ma) / ma if lower else (ma - mb) / ma
    bound = spec["bound"]
    spread = max((a["q3"] - a["q1"]) / ma, (b["q3"] - b["q1"]) / mb)
    if lower:
        all_better, all_worse = b["q3"] < a["q1"], b["q1"] > a["q3"]
    else:
        all_better, all_worse = b["q1"] > a["q3"], b["q3"] < a["q1"]
    beyond_floor = spec["name"] != "setup_s" or abs(mb - ma) > SETUP_FLOOR_S
    if worse > bound and beyond_floor:
        return ("regressed" if spread <= bound or all_worse else "unresolved"), worse
    if spread > bound and not all_better:
        return "unresolved", worse
    return "unchanged", worse


def compare(a: dict, b: dict, bounds: Dict[str, dict]) -> Tuple[List[str], int]:
    """Rows of text and the exit status."""
    if (a["seed"], a["quick"]) != (b["seed"], b["quick"]):
        return [f"cannot compare: seed/quick {a['seed']}/{a['quick']} vs "
                f"{b['seed']}/{b['quick']}"], 2
    refused = host_mismatch(a, b)
    lines = []
    if refused:
        lines.append("refusing to compare host-time metrics ("
                     + ", ".join(HOST_METRICS) + "): " + "; ".join(refused))
    bad = False
    for name in a["workloads"]:
        if name not in b["workloads"]:
            lines.append(f"{name:<16} missing from B")
            bad = True
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        cells = []
        for metric, spec in bounds.items():
            ma, mb = wa["metrics"][metric], wb["metrics"][metric]
            if metric in HOST_METRICS:
                if refused:
                    cells.append(f"{metric}=refused")
                    continue
                verdict, worse = host_verdict(spec, ma, mb)
                bad |= verdict != "unchanged"
                cells.append(f"{metric}={verdict}({-worse:+.1%})")
            elif ma["value"] == mb["value"]:
                cells.append(f"{metric}=unchanged")
            else:
                bad = True
                cells.append(f"{metric}=MISMATCH({ma['value']!r}->{mb['value']!r})")
        if "per_layer" in wa and "per_layer" in wb:
            diff = [layer for layer in LAYERS
                    if wa["per_layer"][f"{layer}.calls_per_req"]["value"]
                    != wb["per_layer"][f"{layer}.calls_per_req"]["value"]]
            bad |= bool(diff)
            cells.append("calls_per_req=" + (f"MISMATCH({','.join(diff)})" if diff
                                             else "unchanged"))
        lines.append(f"{name:<16} " + "  ".join(cells))
    if bad:
        return lines, 1
    return lines, 2 if refused else 0


# -------------------------------------------------------------- baseline
def _spread(values: List[float]) -> float:
    """Quartile distance over the median, with the default (exclusive)
    quartiles: how a spread across ten seeds is judged against a bound."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def record(a: dict, b: dict, extra: List[dict], bounds: Dict[str, dict]) -> dict:
    """Baseline from two full invocations at the default seed, plus any
    number of other results: ``--quick`` ones add their digests, full ones
    at other seeds give each metric's spread across seeds."""
    digests: Dict[str, Dict[str, str]] = {"full": {}, "quick": {}}
    across: Dict[str, Dict[str, List[float]]] = {}
    for res in [a, b] + extra:
        if res["seed"] == DEFAULT_SEED:
            kind = "quick" if res["quick"] else "full"
            for name, w in res["workloads"].items():
                digests[kind][name] = w["sim"]["schedule_digest"]
    for res in extra:
        if not res["quick"]:
            for name, w in res["workloads"].items():
                for metric in bounds:
                    across.setdefault(name, {}).setdefault(metric, []).append(
                        w["metrics"][metric]["value"])
    workloads = {}
    for name, wa in a["workloads"].items():
        wb = b["workloads"][name]
        entry = {
            "reps": [wa["reps"], wb["reps"]],
            "sim_samples": wa["sim"]["sim_samples"],
            "end_to_end": {
                metric: {k: wa["metrics"][metric][k] for k in ("value", "q1", "q3")
                         if k in wa["metrics"][metric]}
                for metric in bounds
            },
            "spread_between_invocations": {
                metric: abs(wb["metrics"][metric]["value"] - wa["metrics"][metric]["value"])
                / wa["metrics"][metric]["value"]
                for metric in bounds
            },
        }
        if name in across:
            entry["spread_across_seeds"] = {
                "seeds": len(across[name]["setup_s"]),
                **{metric: _spread(v) for metric, v in across[name].items()},
            }
        if "per_layer" in wa:
            entry["per_layer"] = {k: m["value"] for k, m in wa["per_layer"].items()}
        workloads[name] = entry
    return {"seed": a["seed"], "host": a["meta"], "digests": digests,
            "workloads": workloads}


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def main(argv: Optional[list] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", metavar="A.json")
    ap.add_argument("b", metavar="B.json")
    ap.add_argument("extra", metavar="MORE.json", nargs="*",
                    help="with --record: --quick results (their digests) and "
                         "results at other seeds (spread across seeds)")
    ap.add_argument("--record", action="store_true",
                    help=f"write {os.path.relpath(BASELINE, ROOT)} instead of comparing")
    args = ap.parse_args(argv)
    bounds = load_bounds()
    a, b = _load(args.a), _load(args.b)
    if args.record:
        base = record(a, b, [_load(p) for p in args.extra], bounds)
        with open(BASELINE, "w") as fh:
            json.dump(base, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {BASELINE}")
        return 0
    lines, status = compare(a, b, bounds)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
