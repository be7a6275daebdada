"""Simulator benchmark: five workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python bench/run.py                        # all five workloads, 3 reps each
    python bench/run.py --workload incast --seed 7 --seconds 15 --trace 1
    python bench/run.py --quick --trace --out /tmp/quick.json

Each rep of each workload runs in its own fresh interpreter
(``bench/workloads.py``) with one thread, ``partitions=1`` and no sweep
pool; reps are interleaved round-robin across workloads.  Host metrics
are the median over the reps; simulated (``sim_*``) metrics must be
identical in every rep.  ``--trace`` adds one more rep per workload under
``cProfile`` and prints the per-layer table.

Output: a block per workload on stdout, then, as the LAST line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` -- end-to-end
metrics without ``--trace``, per-layer metrics with it.  With several
workloads the metric names are prefixed ``<workload>.``.  Exit status: 0
when every output check passes, 1 when one fails (the failing workload
and field are named), 2 when the benchmark cannot run at all (then no
result line is printed).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from layers import LAYERS  # noqa: E402
from workloads import CALIBRATION_REF_S, WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
BASELINE = os.path.join(BENCH, "baseline.json")
#: a rep that takes longer than this is hung
CHILD_TIMEOUT_S = 170

#: end-to-end metric -> unit.  Host metrics first, then simulated ones.
END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "sim_p50_us": "sim_us",
    "sim_p99_us": "sim_us",
    "sim_goodput_gbps": "Gbit/s",
}
HOST_METRICS = ("setup_s", "requests_per_s", "peak_rss_mb")

#: per-layer counter metric -> unit (besides <layer>.self_share / .calls_per_req)
COUNTERS = {
    "simnet.engine.events_per_req": "events/req",
    "simnet.engine.heap_high_water": "entries",
    "simnet.network.packets_per_req": "packets/req",
    "simnet.network.slowpath_share": "share",
    "simnet.network.max_port_util": "share",
    "pspin.packets_per_req": "packets/req",
    "pspin.drops": "count",
    "pspin.nacks": "count",
    "hostsim.cpu_busy_share": "share",
    "hostsim.pcie_bytes_per_req": "B/req",
    "rdma.retransmits": "count",
    "rdma.timeouts": "count",
    "faults.drops": "count",
}


def per_layer_units() -> Dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_share"] = "share"
        units[f"{layer}.calls_per_req"] = "calls/req"
    units["trace.overhead"] = "x"
    units.update(COUNTERS)
    return units


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


# ------------------------------------------------------------------ reps
_ADDR_NO_RANDOMIZE = 0x0040000
try:
    _personality = ctypes.CDLL(None).personality  # Linux only
except (OSError, AttributeError):
    _personality = None


def _fixed_address_layout() -> None:
    """preexec_fn: run the rep without address-space randomisation.  With
    it, the peak RSS of identical ``incast --quick`` reps reads either ~46
    or ~61 MiB, depending on where the address space was laid out."""
    if _personality is not None:
        _personality(_personality(0xFFFFFFFF) | _ADDR_NO_RANDOMIZE)


def run_child(workload: str, seed: int, quick: bool, trace: bool) -> dict:
    """One rep in a fresh single-threaded interpreter."""
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=src + (os.pathsep + path if path else ""),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [sys.executable, os.path.join(BENCH, "workloads.py"),
           "--workload", workload, "--seed", str(seed)]
    if quick:
        cmd.append("--quick")
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S,
                              preexec_fn=_fixed_address_layout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: rep exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"{workload}: rep exited {proc.returncode}\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_meta() -> dict:
    try:
        affinity: Optional[int] = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "cpus_affinity": affinity,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def load_digests(quick: bool) -> Dict[str, str]:
    """Schedule digests recorded at the default seed (bench/baseline.json)."""
    try:
        with open(BASELINE) as fh:
            base = json.load(fh)
    except FileNotFoundError:
        return {}
    return base.get("digests", {}).get("quick" if quick else "full", {})


# ----------------------------------------------------------- aggregation
def quartiles(values: List[float]) -> tuple:
    """(q1, median, q3) of a few reps; a single value is its own quartiles.
    Inclusive method: with three reps the default (exclusive) quartiles are
    the minimum and the maximum, so one outlier would set the spread."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def sim_view(rep: dict) -> dict:
    """The simulated results of one rep (must be identical across reps)."""
    lat = rep["latency"]
    n = lat["n"]
    view = {
        "sim_p50_us": lat["p50"] / 1e3,
        "sim_p99_us": lat["p99"] / 1e3,
        # p999 is only meaningful with >= 10 samples beyond it
        "sim_p999_us": lat["p999"] / 1e3 if n >= 10_000 else None,
        "sim_goodput_gbps": rep["goodput_gbps"],
        "sim_samples": n,
        "issued": rep["issued"],
        "failed": rep["failed"],
        "failed_frac": rep["failed"] / rep["issued"],
        "schedule_digest": rep["digest"],
        "sim_end_ns": rep["sim_end_ns"],
    }
    for phase, p99 in sorted((rep.get("phase_p99_ns") or {}).items()):
        view[f"sim_phase.{phase}.p99_us"] = p99 / 1e3 if p99 is not None else None
    return view


def summarize(name: str, reps: List[dict], seed: int,
              digests: Dict[str, str]) -> dict:
    """Medians, quartiles and output checks of one workload's reps."""
    failures: List[str] = []
    for i, rep in enumerate(reps):
        for field, ok in sorted(rep["checks"].items()):
            if not ok:
                failures.append(f"{name}: {field} is false (rep {i}, seed {seed})")
    sims = [sim_view(r) for r in reps]
    sim = sims[0]
    for field in sim:
        if any(s[field] != sim[field] for s in sims[1:]):
            failures.append(f"{name}: {field} differs across reps at seed {seed}: "
                            f"{[s[field] for s in sims]}")
    if sim["failed"]:
        failures.append(f"{name}: failed: {sim['failed']} of {sim['issued']} "
                        "requests failed")
    want = digests.get(name)
    if seed == DEFAULT_SEED and want is not None and sim["schedule_digest"] != want:
        failures.append(f"{name}: schedule_digest {sim['schedule_digest']} != "
                        f"recorded {want} at the default seed")
    # host seconds: the reps' thread CPU time at the reference host speed
    # (workloads._HostClock); the plain CPU times stay in raw_per_rep
    raw = {
        "setup_s": [r["setup_cpu_s"] for r in reps],
        "requests_per_s": [r["issued"] / r["run_cpu_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    quart = {
        "setup_s": quartiles([r["setup_ref_s"] for r in reps]),
        "requests_per_s": quartiles([r["issued"] / r["run_ref_s"] for r in reps]),
        "peak_rss_mb": quartiles(raw["peak_rss_mb"]),
    }
    metrics = {}
    for metric, unit in END_TO_END.items():
        if metric in raw:
            q1, med, q3 = quart[metric]
            metrics[metric] = {"value": med, "unit": unit, "q1": q1, "q3": q3,
                               "raw_per_rep": raw[metric]}
        else:
            metrics[metric] = {"value": sim[metric], "unit": unit}
    return {
        "workload": name,
        "reps": len(reps),
        "metrics": metrics,
        "sim": sim,
        "rep_times": [
            {k: r[k] for k in ("setup_s", "run_s", "setup_cpu_s", "run_cpu_s",
                               "setup_ref_s", "run_ref_s")}
            for r in reps
        ],
        "calibration_s": statistics.median(c for r in reps for c in r["calibration_s"]),
        "counters": reps[0]["counters"],
        "failures": failures,
    }


def layer_metrics(summary: dict, traced: dict) -> Dict[str, dict]:
    """Per-layer metrics of one workload from its traced rep."""
    units = per_layer_units()
    prof = traced["profile"]
    c = traced["counters"]
    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_share"] = prof["self_share"][layer]
        values[f"{layer}.calls_per_req"] = prof["calls_per_req"][layer]
    untraced = statistics.median(r["setup_s"] + r["run_s"] for r in summary["rep_times"])
    values["trace.overhead"] = (traced["setup_s"] + traced["run_s"]) / untraced
    for name in COUNTERS:
        if name == "simnet.network.slowpath_share":
            values[name] = prof["port_start_calls"] / max(c["simnet.network.tx_packets"], 1)
        else:
            values[name] = c[name]
    return {k: {"value": values[k], "unit": units[k]} for k in units}


# -------------------------------------------------------------- printing
def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def render(summary: dict, seed: int) -> str:
    name = summary["workload"]
    kind, why = WORKLOADS[name]
    lines = [f"== {name} ({kind} loop, seed {seed}, {summary['reps']} reps): {why}"]
    for metric, m in summary["metrics"].items():
        spread = ""
        if "q1" in m:
            spread = f"   q1 {_fmt(m['q1'])}  q3 {_fmt(m['q3'])}"
        lines.append(f"  {metric:<18} {_fmt(m['value']):>14} {m['unit']:<8}{spread}")
    sim = summary["sim"]
    lines.append(f"  {'sim_samples':<18} {sim['sim_samples']:>14} count    "
                 "(p999 reported only with >= 10k)")
    lines.append(f"  {'sim_p999_us':<18} {_fmt(sim['sim_p999_us']):>14} sim_us")
    lines.append(f"  {'failed_frac':<18} {_fmt(sim['failed_frac']):>14} "
                 f"failed/issued ({sim['failed']}/{sim['issued']})")
    for k, v in sim.items():
        if k.startswith("sim_phase."):
            lines.append(f"  {k:<30} {_fmt(v):>10} sim_us")
    lines.append(f"  schedule_digest    {sim['schedule_digest']}")
    lines.append(f"  host times at reference speed: calibration chunk "
                 f"{summary['calibration_s'] * 1e3:.4f} ms vs "
                 f"{CALIBRATION_REF_S * 1e3:.4f} ms reference")
    if summary["failures"]:
        lines += [f"  CHECK FAILED: {f}" for f in summary["failures"]]
    else:
        lines.append("  checks: ok")
    layer = summary.get("per_layer")
    if layer:
        lines.append(f"  {'layer':<18} {'self_share':>10} {'calls/req':>12}")
        for l in LAYERS:
            lines.append(f"  {l:<18} {layer[l + '.self_share']['value']:>10.3f} "
                         f"{layer[l + '.calls_per_req']['value']:>12.2f}")
        lines.append(f"  trace.overhead     {layer['trace.overhead']['value']:.3g}x")
        for k in COUNTERS:
            lines.append(f"  {k:<34} {_fmt(layer[k]['value']):>12} {layer[k]['unit']}")
    return "\n".join(lines)


# ------------------------------------------------------------------ main
def run(workloads: List[str], seed: int, reps: int, seconds: float,
        trace: bool, quick: bool) -> dict:
    digests = load_digests(quick)
    by_workload: Dict[str, List[dict]] = {w: [] for w in workloads}
    t0 = time.monotonic()
    rounds = 0
    while rounds < reps or time.monotonic() - t0 < seconds * len(workloads):
        for w in workloads:
            by_workload[w].append(run_child(w, seed, quick, trace=False))
        rounds += 1
    out = {"meta": host_meta(), "seed": seed, "quick": quick, "workloads": {}}
    for w in workloads:
        summary = summarize(w, by_workload[w], seed, digests)
        if trace:
            traced = run_child(w, seed, quick, trace=True)
            if sim_view(traced) != summary["sim"]:
                summary["failures"].append(
                    f"{w}: the traced rep's sim_* results differ from the untraced reps'")
            summary["per_layer"] = layer_metrics(summary, traced)
            summary["profile"] = traced["profile"]
        out["workloads"][w] = summary
    return out


def result_line(out: dict, trace: bool) -> dict:
    single = len(out["workloads"]) == 1
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name, s in out["workloads"].items():
        chosen = s["per_layer"] if trace else {
            k: {"value": m["value"], "unit": m["unit"]} for k, m in s["metrics"].items()
        }
        for k, m in chosen.items():
            metrics[k if single else f"{name}.{k}"] = m
        attempted += s["sim"]["issued"] * s["reps"]
        failed += s["sim"]["failed"] * s["reps"]
        correct = correct and not s["failures"]
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: Optional[list] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=list(WORKLOADS),
                    help="run only this workload (repeatable; default: all five)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--reps", type=int, default=3,
                    help="minimum fresh-process reps per workload (default 3)")
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="keep adding rounds of reps until each workload has "
                         "had this many wall seconds (default 0)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="also run each workload once under cProfile and report "
                         "the per-layer metrics")
    ap.add_argument("--quick", action="store_true",
                    help="shrink every workload about 20x (smoke runs, tests)")
    ap.add_argument("--out", metavar="F", help="write the full results as JSON")
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be >= 1")

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"bench: no simulator sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    workloads = args.workload or list(WORKLOADS)
    try:
        out = run(workloads, args.seed, args.reps, args.seconds, bool(args.trace),
                  args.quick)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for s in out["workloads"].values():
        print(render(s, args.seed))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
    result = result_line(out, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
