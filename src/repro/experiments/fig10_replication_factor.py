"""Fig. 10: write latency vs replication factor (4 KiB and 512 KiB).

Claims (§V-B3): for small writes RDMA-Flat is lowest at any k; for large
writes the client injection cost makes RDMA-Flat grow linearly with k;
sPIN strategies are the least sensitive to k; PBT beats Ring for small
writes at large k (tree depth log k vs k).
"""

from __future__ import annotations

from typing import Optional

from ..analysis import shapes
from ..dfs.layout import ReplicationSpec
from ..params import SimParams
from ..workloads import optimal_chunk_size
from .common import KiB, measure_latency, render_rows, size_label

ID = "fig10"
TITLE = "Fig. 10 — write latency vs replication factor (ns)"
CLAIMS = [
    "4 KiB: RDMA-Flat lowest for any k",
    "512 KiB: RDMA-Flat grows ~linearly with k",
    "sPIN latency is much less sensitive to k than RDMA-Flat",
    "PBT beats Ring for small writes at large k",
]

KS = [2, 3, 4, 6, 8]
QUICK_KS = [2, 4, 8]
SIZES = [4 * KiB, 512 * KiB]
STRATS = ["rdma-flat", "cpu-ring", "rdma-hyperloop", "spin-ring", "spin-pbt"]


def _one(col: str, size: int, k: int, params, quick: bool) -> float:
    proto = {"rdma-flat": "rdma-flat", "cpu-ring": "cpu",
             "rdma-hyperloop": "rdma-hyperloop",
             "spin-ring": "spin", "spin-pbt": "spin"}[col]
    strategy = "pbt" if col.endswith("pbt") else "ring"
    repl = ReplicationSpec(k=k, strategy=strategy)
    if proto in ("cpu", "rdma-hyperloop") and size > 16 * KiB and not quick:
        _, lat = optimal_chunk_size(
            lambda c: measure_latency(proto, size, params=params, replication=repl,
                                      repeats=1, chunk_bytes=c),
            [32 * KiB, 64 * KiB, 128 * KiB],
        )
        return lat
    kw = {"chunk_bytes": min(size, 64 * KiB)} if proto in ("cpu", "rdma-hyperloop") else {}
    return measure_latency(proto, size, params=params, replication=repl, repeats=1, **kw)


def points(quick: bool = False) -> list[dict]:
    ks = QUICK_KS if quick else KS
    return [
        {"size": size, "k": k, "quick": quick}
        for size in SIZES
        for k in ks
    ]


def run_point(point: dict, params: Optional[SimParams] = None) -> dict:
    size, k = point["size"], point["k"]
    row: dict = {"size": size, "size_label": size_label(size), "k": k}
    for col in STRATS:
        row[col] = _one(col, size, k, params, point["quick"])
    return row


def check(rows: list[dict]) -> None:
    for size in SIZES:
        sub = {r["k"]: r for r in rows if r["size"] == size}
        ks = sorted(sub)
        if size <= 4 * KiB:
            for k in ks:
                best = min(sub[k][c] for c in STRATS)
                shapes.check(
                    sub[k]["rdma-flat"] <= best * 1.001,
                    f"4KiB: RDMA-Flat lowest at k={k}",
                )
            # PBT beats Ring at the largest k for small writes
            shapes.assert_faster(
                sub[ks[-1]]["spin-pbt"], sub[ks[-1]]["spin-ring"],
                f"4KiB: PBT < Ring at k={ks[-1]}",
            )
        else:
            flat_growth = sub[ks[-1]]["rdma-flat"] / sub[ks[0]]["rdma-flat"]
            spin_growth = sub[ks[-1]]["spin-ring"] / sub[ks[0]]["spin-ring"]
            expected = ks[-1] / ks[0]
            shapes.check(
                flat_growth > 0.7 * expected,
                f"512KiB: RDMA-Flat grows ~linearly in k (x{flat_growth:.2f} for k x{expected})",
            )
            shapes.check(
                spin_growth < flat_growth / 2,
                f"512KiB: sPIN much less k-sensitive (spin x{spin_growth:.2f} vs flat x{flat_growth:.2f})",
            )
            shapes.assert_faster(
                sub[ks[-1]]["spin-ring"], sub[ks[-1]]["rdma-flat"],
                "512KiB: sPIN-Ring beats RDMA-Flat at large k",
            )


def render(rows: list[dict]) -> str:
    return render_rows(rows, ["size_label", "k", *STRATS], TITLE)
