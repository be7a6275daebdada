"""Fig. 9 (right): goodput sustained by one network-accelerated storage
node, per write size and offloaded replication strategy.

Claims (§V-B2): small single-packet writes are handler-limited (each
packet triggers all three handlers); sPIN-Ring approaches line rate from
~8 KiB; sPIN-PBT sustains about half the bandwidth because every
incoming packet produces two outgoing ones.
"""

from __future__ import annotations

from typing import Optional

from ..analysis import shapes
from ..dfs.layout import ReplicationSpec
from ..params import SimParams
from ..workloads import measure_goodput, payload_bytes
from .common import KiB, fresh_client, render_rows, size_label

ID = "fig09_goodput"
TITLE = "Fig. 9 R — single-node goodput (Gbit/s)"
CLAIMS = [
    "goodput grows with write size (per-write handler costs amortize)",
    "sPIN-Ring reaches >=85% of achievable line rate for large writes",
    "sPIN-PBT sustains about half of sPIN-Ring's goodput",
]

SIZES = [1 * KiB, 2 * KiB, 4 * KiB, 8 * KiB, 16 * KiB, 64 * KiB, 256 * KiB, 512 * KiB]
QUICK_SIZES = [1 * KiB, 8 * KiB, 64 * KiB, 512 * KiB]


def _goodput(strategy: str, size: int, params: Optional[SimParams], n_ops: int, window: int) -> float:
    # k=3 so the PBT primary really fans out to two children (with k=2
    # ring and pbt are the same unary tree, §V-B1).
    tb, client = fresh_client("spin", params)
    client.create(
        "/bench", size=max(size, 1), replication=ReplicationSpec(k=3, strategy=strategy)
    )
    data = payload_bytes(size)

    def issue(i: int):
        return client.write("/bench", data, protocol="spin")

    res = measure_goodput(tb, issue, n_ops=n_ops, op_bytes=size, window=window)
    return res.goodput_gbps


def points(quick: bool = False) -> list[dict]:
    sizes = QUICK_SIZES if quick else SIZES
    pts = []
    for size in sizes:
        if size <= 16 * KiB:
            # small writes need a deep window to fill the pipe
            n_ops, window = (96 if quick else 192), 128
        elif size <= 64 * KiB:
            n_ops, window = 48, 48
        else:
            n_ops, window = 16, 16
        pts.append({"size": size, "n_ops": n_ops, "window": window})
    return pts


def run_point(point: dict, params: Optional[SimParams] = None) -> dict:
    size, n_ops, window = point["size"], point["n_ops"], point["window"]
    return {
        "size": size,
        "size_label": size_label(size),
        "spin-ring": _goodput("ring", size, params, n_ops, window),
        "spin-pbt": _goodput("pbt", size, params, n_ops, window),
    }


def achievable_line_rate(params: Optional[SimParams] = None) -> float:
    """Goodput ceiling: line rate minus per-packet header overhead."""
    p = params or SimParams()
    mtu = p.net.mtu
    return p.net.bandwidth_gbps * mtu / (mtu + 64)


def check(rows: list[dict]) -> None:
    ring = {r["size"]: r["spin-ring"] for r in rows}
    pbt = {r["size"]: r["spin-pbt"] for r in rows}
    sizes = sorted(ring)
    vals = [ring[s] for s in sizes]
    shapes.check(
        all(b >= a * 0.92 for a, b in zip(vals, vals[1:])),
        f"ring goodput grows with size (within window-depth noise): {vals}",
    )
    line = achievable_line_rate()
    shapes.check(
        ring[sizes[-1]] >= 0.85 * line,
        f"sPIN-Ring near line rate at {size_label(sizes[-1])} "
        f"({ring[sizes[-1]]:.0f} vs achievable {line:.0f} Gbit/s)",
    )
    big = sizes[-1]
    shapes.assert_ratio_between(
        pbt[big], ring[big], 0.35, 0.65,
        "sPIN-PBT sustains about half of ring goodput (2x egress amplification)",
    )


def render(rows: list[dict]) -> str:
    return render_rows(rows, ["size_label", "spin-ring", "spin-pbt"], TITLE)
