"""Fig. 15 (right): encoding bandwidth, sPIN-TriEC vs INEC-TriEC.

Methodology from the INEC paper (window-based):
``bandwidth = size of generated data / elapsed time`` where generated
data counts the full encoded output (k+m chunks per block).

Claims (§VI-C(b)): sPIN-TriEC is up to ~29x better at 1 KiB blocks
(INEC's per-block setup dominates) and ~3.3x at 512 KiB; sPIN bandwidth
is roughly block-size independent but shows a ~12% drop at large sizes
from NIC-memory contention.
"""

from __future__ import annotations

from typing import Optional

from ..analysis import shapes
from ..dfs.layout import EcSpec
from ..params import SimParams
from ..workloads import measure_goodput, payload_bytes
from .common import KiB, fresh_client, render_rows, size_label

ID = "fig15_bandwidth"
TITLE = "Fig. 15 R — encoding bandwidth at 100 Gbit/s (Gbit/s of generated data)"
CLAIMS = [
    "sPIN-TriEC bandwidth is far above INEC-TriEC at small blocks (paper: 29x at 1 KiB)",
    "the advantage shrinks but persists at 512 KiB (paper: 3.3x)",
    "sPIN bandwidth is roughly size-independent, with a modest drop at large blocks",
]

SIZES = [1 * KiB, 8 * KiB, 64 * KiB, 512 * KiB]
SCHEMES = [(3, 2), (6, 3)]


def _bandwidth(protocol: str, size: int, k: int, m: int, params: SimParams, n_ops: int, window: int) -> float:
    tb, client = fresh_client(protocol, params)
    client.create("/bench", size=max(size, k), ec=EcSpec(k=k, m=m))
    data = payload_bytes(size)

    def issue(i: int):
        return client.write("/bench", data, protocol=protocol)

    res = measure_goodput(tb, issue, n_ops=n_ops, op_bytes=size, window=window)
    generated = res.bytes_completed * (k + m) / k
    return generated * 8.0 / res.elapsed_ns


def points(quick: bool = False) -> list[dict]:
    sizes = SIZES if not quick else [1 * KiB, 512 * KiB]
    return [
        {
            "k": k,
            "m": m,
            "size": size,
            "n_ops": 12 if size >= 256 * KiB else 128,
            "window": 96 if size <= 8 * KiB else 8,
        }
        for k, m in SCHEMES
        for size in sizes
    ]


def run_point(point: dict, params: Optional[SimParams] = None) -> dict:
    # The 100 Gbit/s scaling happens per point: run_sweep hands workers
    # (and the cache key) the caller's raw params.
    p = (params or SimParams()).scaled_network(100.0)
    k, m, size = point["k"], point["m"], point["size"]
    n_ops, window = point["n_ops"], point["window"]
    spin = _bandwidth("spin", size, k, m, p, n_ops, window)
    inec = _bandwidth("inec", size, k, m, p, n_ops, window)
    return {
        "scheme": f"RS({k},{m})",
        "size": size,
        "size_label": size_label(size),
        "spin-triec": spin,
        "inec-triec": inec,
        "ratio": spin / inec,
    }


def check(rows: list[dict]) -> None:
    for k, m in SCHEMES:
        sub = {r["size"]: r for r in rows if r["scheme"] == f"RS({k},{m})"}
        sizes = sorted(sub)
        small, large = sub[sizes[0]], sub[sizes[-1]]
        shapes.check(
            10.0 <= small["ratio"] <= 70.0,
            f"RS({k},{m}): order-of-magnitude sPIN advantage at small blocks "
            f"(paper: 29x; got {small['ratio']:.1f}x)",
        )
        shapes.check(
            1.4 <= large["ratio"] <= 6.0,
            f"RS({k},{m}): advantage persists at 512 KiB (paper: 3.3x; got {large['ratio']:.1f}x)",
        )
        shapes.check(
            small["ratio"] > large["ratio"],
            f"RS({k},{m}): INEC amortizes its per-block overhead with size",
        )
        # sPIN bandwidth varies far less with block size than INEC's
        # (deviation note: our per-packet fixed handler cost makes small
        # blocks cheaper to ship but costlier per byte, see EXPERIMENTS.md)
        spins = [sub[s]["spin-triec"] for s in sizes]
        inecs = [sub[s]["inec-triec"] for s in sizes]
        spin_spread = max(spins) / min(spins)
        inec_spread = max(inecs) / min(inecs)
        shapes.check(
            spin_spread < inec_spread / 3,
            f"RS({k},{m}): sPIN bandwidth far flatter than INEC "
            f"(spread {spin_spread:.1f}x vs {inec_spread:.1f}x)",
        )


def render(rows: list[dict]) -> str:
    return render_rows(
        rows, ["scheme", "size_label", "spin-triec", "inec-triec", "ratio"], TITLE
    )
