"""Fig. 9 (left/center): replicated-write latency across strategies.

Strategies (§V-B): CPU-Ring, CPU-PBT, RDMA-Flat, RDMA-HyperLoop,
sPIN-Ring, sPIN-PBT; replication factors k=2 and k=4; write sizes
1 KiB – 1 MiB.  CPU and HyperLoop runs are pipelined with the optimal
chunk size, as in the paper.

Claims: RDMA-Flat wins for small writes; sPIN wins past a crossover in
the tens of KiB (paper: 16 KiB); sPIN achieves ~2x over the best
alternative for large writes; CPU strategies are penalized by host
memory traffic; HyperLoop is penalized by WQE configuration, amortized
at large sizes.
"""

from __future__ import annotations

from typing import Optional

from ..analysis import shapes
from ..dfs.layout import ReplicationSpec
from ..params import SimParams
from ..workloads import optimal_chunk_size
from .common import KiB, MiB, measure_anatomy, measure_latency, render_rows, size_label

ID = "fig09_latency"
TITLE = "Fig. 9 L/C — replicated write latency (ns)"
CLAIMS = [
    "RDMA-Flat has the lowest latency for small writes",
    "sPIN strategies win beyond a crossover in the tens of KiB",
    "sPIN is ~1.5-2.5x faster than the best alternative for large writes",
    "CPU-based strategies pay host-memory round trips on every hop",
    "ring == pbt for k=2 (single child)",
]

KS = (2, 4)  # replication factors (Fig. 9 left: k=2, center: k=4)
SIZES = [1 * KiB, 4 * KiB, 16 * KiB, 64 * KiB, 256 * KiB, 1 * MiB]
QUICK_SIZES = [1 * KiB, 16 * KiB, 256 * KiB]
CHUNK_CANDIDATES = [16 * KiB, 32 * KiB, 64 * KiB, 128 * KiB]


def _strategies(k: int) -> list[tuple[str, str, dict]]:
    """(column, protocol, extra kwargs) per strategy."""
    out = [
        ("cpu-ring", "cpu", {"strategy": "ring"}),
        ("cpu-pbt", "cpu", {"strategy": "pbt"}),
        ("rdma-flat", "rdma-flat", {}),
        ("rdma-hyperloop", "rdma-hyperloop", {}),
        ("spin-ring", "spin", {"strategy": "ring"}),
        ("spin-pbt", "spin", {"strategy": "pbt"}),
    ]
    return out


def _latency(col: str, proto: str, extra: dict, size: int, k: int, params, repeats: int) -> float:
    strategy = extra.get("strategy", "ring")
    repl = ReplicationSpec(k=k, strategy=strategy)

    if proto in ("cpu", "rdma-hyperloop") and size > 16 * KiB:
        # pipelined with optimal chunk size (§V-B)
        def run_chunk(chunk: int) -> float:
            return measure_latency(
                proto, size, params=params, replication=repl,
                repeats=1, chunk_bytes=chunk,
            )

        cands = [c for c in CHUNK_CANDIDATES if c <= max(size, CHUNK_CANDIDATES[0])]
        _, lat = optimal_chunk_size(run_chunk, cands)
        return lat
    kw = {"chunk_bytes": size} if proto in ("cpu", "rdma-hyperloop") else {}
    return measure_latency(proto, size, params=params, replication=repl, repeats=repeats, **kw)


def points(quick: bool = False) -> list[dict]:
    sizes = QUICK_SIZES if quick else SIZES
    return [
        {"k": k, "size": size, "repeats": 1 if quick else 2}
        for k in KS
        for size in sizes
    ]


def run_point(point: dict, params: Optional[SimParams] = None) -> dict:
    k, size = point["k"], point["size"]
    row: dict = {"k": k, "size": size, "size_label": size_label(size)}
    for col, proto, extra in _strategies(k):
        row[col] = _latency(col, proto, extra, size, k, params, point["repeats"])
    # latency anatomy of the headline strategy: where the sPIN-Ring
    # write's time goes, phase by phase (the decomposition raises if the
    # phases miss its end-to-end latency)
    an = measure_anatomy(
        "spin", size, params=params, replication=ReplicationSpec(k=k, strategy="ring")
    )
    row["spin_wire_ns"] = an.phases["wire"]
    row["spin_hpu_ns"] = an.phases["hpu"]
    row["spin_dma_ns"] = an.phases["dma"]
    row["spin_other_ns"] = an.phases["other"]
    return row


def check(rows: list[dict]) -> None:
    for k in sorted({r["k"] for r in rows}):
        sub = {r["size"]: r for r in rows if r["k"] == k}
        sizes = sorted(sub)
        small, large = sub[sizes[0]], sub[sizes[-1]]
        spin_cols = ["spin-ring", "spin-pbt"]
        others = ["cpu-ring", "cpu-pbt", "rdma-flat", "rdma-hyperloop"]

        # RDMA-Flat fastest at the smallest size
        best_small = min(small[c] for c in spin_cols + others)
        shapes.check(
            small["rdma-flat"] <= best_small * 1.001,
            f"k={k}: RDMA-Flat wins at {size_label(sizes[0])}",
        )
        # sPIN wins at the largest size
        best_spin = min(large[c] for c in spin_cols)
        best_other = min(large[c] for c in others)
        shapes.assert_faster(best_spin, best_other, f"k={k}: sPIN wins at 1 MiB")
        shapes.assert_ratio_between(
            best_other, best_spin, 1.3, 4.0,
            f"k={k}: large-write sPIN advantage ~2x (paper: 2x/2.16x)",
        )
        # crossover against RDMA-Flat in the tens-of-KiB range
        flat = {s: sub[s]["rdma-flat"] for s in sizes}
        ring = {s: sub[s]["spin-ring"] for s in sizes}
        shapes.assert_crossover_within(
            flat, ring, 4 * KiB, 512 * KiB,
            f"k={k}: RDMA-Flat/sPIN-Ring crossover (paper: 16 KiB)",
        )
        # CPU strategies slowest among pipelines at large sizes
        shapes.check(
            min(large["cpu-ring"], large["cpu-pbt"]) > best_spin,
            f"k={k}: CPU replication pays host-memory costs",
        )
        if k == 2:
            for s in sizes:
                shapes.assert_ratio_between(
                    sub[s]["spin-pbt"], sub[s]["spin-ring"], 0.9, 1.1,
                    f"k=2: ring == pbt at {size_label(s)} (single child)",
                )


def render(rows: list[dict]) -> str:
    cols = ["k", "size_label", "cpu-ring", "cpu-pbt", "rdma-flat",
            "rdma-hyperloop", "spin-ring", "spin-pbt",
            "spin_wire_ns", "spin_hpu_ns", "spin_dma_ns", "spin_other_ns"]
    return render_rows(rows, cols, TITLE)
