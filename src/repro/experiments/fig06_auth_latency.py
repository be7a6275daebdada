"""Fig. 6: write latency under request authentication, by protocol.

Protocols (§IV): Raw (speed of light, no policy), sPIN (on-NIC
validation), RPC (data inline, buffered + validated on CPU), RPC+RDMA
(validation RPC, then server-initiated RDMA read).

Paper claims reproduced: sPIN costs up to ~27 % over raw for small
writes and approaches raw for large ones; RPC pays an extra memcpy that
dominates at large sizes; RPC+RDMA pays an extra round trip that
dominates at small sizes.
"""

from __future__ import annotations

from typing import Optional

from ..analysis import shapes
from ..params import SimParams
from .common import KiB, MiB, measure_latency, render_rows, size_label

ID = "fig06"
TITLE = "Fig. 6 — write latency, authentication-only policies"
CLAIMS = [
    "sPIN adds <= ~35% over raw writes at small sizes (paper: up to 27%)",
    "sPIN approaches raw latency for large writes (<5% at 1 MiB)",
    "RPC is penalized by the buffering memcpy at large writes",
    "RPC+RDMA is penalized by the extra round trip at small writes",
]

SIZES = [1 * KiB, 2 * KiB, 4 * KiB, 8 * KiB, 16 * KiB, 32 * KiB, 64 * KiB,
         128 * KiB, 256 * KiB, 512 * KiB, 1 * MiB]
QUICK_SIZES = [1 * KiB, 16 * KiB, 128 * KiB, 1 * MiB]
PROTOCOLS = ["raw", "spin", "rpc", "rpc+rdma"]


def points(quick: bool = False) -> list[dict]:
    sizes = QUICK_SIZES if quick else SIZES
    return [{"size": size, "repeats": 1 if quick else 3} for size in sizes]


def run_point(point: dict, params: Optional[SimParams] = None) -> dict:
    size = point["size"]
    row: dict = {"size": size, "size_label": size_label(size)}
    for proto in PROTOCOLS:
        row[proto] = measure_latency(proto, size, params=params,
                                     repeats=point["repeats"])
    return row


def check(rows: list[dict]) -> None:
    by_size = {r["size"]: r for r in rows}
    sizes = sorted(by_size)
    small, large = by_size[sizes[0]], by_size[sizes[-1]]

    shapes.assert_ratio_between(
        small["spin"], small["raw"], 1.05, 1.40,
        "sPIN overhead over raw at the smallest size (paper: up to 27%)",
    )
    shapes.assert_ratio_between(
        large["spin"], large["raw"], 1.0, 1.05,
        "sPIN approaches raw latency for large writes",
    )
    # overhead shrinks with size
    gaps = [shapes.relative_gap(by_size[s]["spin"], by_size[s]["raw"]) for s in sizes]
    shapes.check(gaps[-1] < gaps[0] / 3, "sPIN/raw gap shrinks with write size")

    # RPC loses to RPC+RDMA for large writes (memcpy vs zero copy) ...
    shapes.assert_faster(large["rpc+rdma"], large["rpc"], "RPC memcpy penalty at large writes")
    # ... and wins for small ones (no extra round trip).
    shapes.assert_faster(small["rpc"], small["rpc+rdma"], "RPC+RDMA RTT penalty at small writes")
    # sPIN beats both CPU-side protocols everywhere.
    for s in sizes:
        shapes.assert_faster(by_size[s]["spin"], by_size[s]["rpc"], f"sPIN < RPC at {s}")
        shapes.assert_faster(
            by_size[s]["spin"], by_size[s]["rpc+rdma"], f"sPIN < RPC+RDMA at {s}"
        )
    # raw is the speed-of-light floor.
    for s in sizes:
        for proto in ("spin", "rpc", "rpc+rdma"):
            shapes.check(
                by_size[s][proto] >= by_size[s]["raw"] * 0.999,
                f"raw is the floor at {s} for {proto}",
            )


def render(rows: list[dict]) -> str:
    disp = [
        {
            "size": r["size_label"],
            **{p: r[p] for p in PROTOCOLS},
            "spin/raw": r["spin"] / r["raw"],
        }
        for r in rows
    ]
    return render_rows(disp, ["size", *PROTOCOLS, "spin/raw"], TITLE + " (ns)")
