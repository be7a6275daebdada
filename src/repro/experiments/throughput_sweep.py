"""Closed-loop multi-client throughput sweep.

Drives the :func:`~repro.workloads.run_closed_loop` load engine over a
growing client population for the sPIN and RPC write paths.  A closed
system self-limits: every client keeps a bounded number of operations
outstanding, so aggregate throughput rises with population until the
bottleneck resource (accelerator pipeline vs. host RPC cores) saturates
and further clients only add queueing latency.

Claims: aggregate throughput scales with the client population before
saturation; the sPIN data path sustains higher aggregate throughput
than host RPC at every population; tail latency (p99) grows with load.

Each row also reports the *latency anatomy* of the measured window —
per-phase p99s from :mod:`repro.telemetry.anatomy` — plus an ``slo_ok``
verdict against the per-protocol budgets in :data:`SLOS`, so a sweep
doubles as a per-scenario SLO report (queueing shows up in
``host_queue``/``other``, not in the compute phases).
"""

from __future__ import annotations

from typing import Optional

from ..analysis import shapes
from ..dfs.cluster import build_testbed
from ..params import SimParams
from ..slo import SloSpec, evaluate
from ..workloads import LoadSpec, closed_loop_write_load
from .common import KiB, installer_for, render_rows, size_label

ID = "throughput_sweep"
TITLE = "Closed-loop throughput vs. client population (8 KiB writes)"
CLAIMS = [
    "aggregate throughput rises with the client population until saturation",
    "sPIN sustains higher aggregate throughput than host RPC",
    "p99 latency grows with offered load",
]

PROTOCOLS = ("spin", "rpc")
CLIENTS = (1, 2, 4, 8, 16)
QUICK_CLIENTS = (1, 4, 8)
SIZE = 8 * KiB

#: per-protocol latency budgets, evaluated per row; they must hold at
#: every population (i.e. through saturation queueing at 16 clients)
SLOS = {
    "spin": SloSpec(budgets={"end_to_end.p50": 8_000,
                             "end_to_end.p99": 15_000}),
    "rpc": SloSpec(budgets={"end_to_end.p50": 10_000,
                            "end_to_end.p99": 20_000}),
}


def points(quick: bool = False) -> list[dict]:
    populations = QUICK_CLIENTS if quick else CLIENTS
    return [
        {
            "protocol": proto,
            "n_clients": n,
            "size": SIZE,
            "measure_ns": 300_000.0 if quick else 1_000_000.0,
        }
        for proto in PROTOCOLS
        for n in populations
    ]


def run_point(point: dict, params: Optional[SimParams] = None) -> dict:
    from ..runner import point_seed

    proto, n = point["protocol"], point["n_clients"]
    # telemetry on: spans only observe (timestamps are byte-identical
    # either way), and they buy the row its latency anatomy below
    tb = build_testbed(n_storage=4, n_clients=min(n, 4), params=params,
                       telemetry=True)
    installer = installer_for(proto)
    if installer is not None:
        installer(tb)
    spec = LoadSpec(
        n_clients=n,
        outstanding=2,
        think_ns=2_000.0,
        warmup_ns=50_000.0,
        measure_ns=point["measure_ns"],
        seed=point_seed(ID, point),
    )
    res = closed_loop_write_load(tb, point["size"], proto, spec)
    phases = res.phase_latency or {}

    def p99(phase: str) -> float:
        return (phases.get(phase) or {}).get("p99") or 0.0

    report = evaluate(SLOS[proto], phases, scenario=f"{proto}/n{n}", n_ops=res.ops)
    return {
        "protocol": proto,
        "n_clients": n,
        "size_label": size_label(point["size"]),
        "ops": res.ops,
        "kops_per_s": res.kops_per_s,
        "goodput_gbps": res.goodput_gbps,
        "p50_ns": res.latency["p50"],
        "p99_ns": res.latency["p99"],
        "queue_p99_ns": p99("host_queue") + p99("other"),
        "wire_p99_ns": p99("wire"),
        "compute_p99_ns": p99("hpu") + p99("cpu"),
        "dma_p99_ns": p99("dma"),
        "slo_ok": report.slo_ok,
        "quiesced": res.quiesced,
    }


def check(rows: list[dict]) -> None:
    for proto in PROTOCOLS:
        sub = sorted((r for r in rows if r["protocol"] == proto),
                     key=lambda r: r["n_clients"])
        shapes.check(all(r["quiesced"] for r in sub), f"{proto}: load quiesces")
        shapes.check(all(r["slo_ok"] for r in sub),
                     f"{proto}: per-phase latency budgets hold at every population")
        lo, hi = sub[0], sub[-1]
        shapes.check(
            hi["kops_per_s"] > lo["kops_per_s"] * 1.5,
            f"{proto}: throughput scales with client population "
            f"({lo['kops_per_s']:.0f} -> {hi['kops_per_s']:.0f} kops/s)",
        )
        shapes.check(
            hi["p99_ns"] >= lo["p99_ns"],
            f"{proto}: tail latency grows with load",
        )
    by_n: dict[int, dict[str, dict]] = {}
    for r in rows:
        by_n.setdefault(r["n_clients"], {})[r["protocol"]] = r
    for n, d in sorted(by_n.items()):
        if "spin" in d and "rpc" in d:
            shapes.check(
                d["spin"]["kops_per_s"] > d["rpc"]["kops_per_s"],
                f"n={n}: sPIN throughput beats host RPC",
            )


def render(rows: list[dict]) -> str:
    cols = ["protocol", "n_clients", "size_label", "ops",
            "kops_per_s", "goodput_gbps", "p50_ns", "p99_ns",
            "queue_p99_ns", "wire_p99_ns", "compute_p99_ns", "slo_ok"]
    return render_rows(rows, cols, TITLE)
