"""Loss sweep: write completion and latency under injected packet loss.

Not a paper figure — a robustness experiment over the fault-injection
layer (:mod:`repro.faults`).  The paper's protocols assume a lossless
fabric; here every link drops packets i.i.d. with probability ``p`` and
the client NIC's end-to-end retransmission layer (timeout + capped
exponential backoff) recovers.  Claims checked:

* at every swept loss rate every write completes (bounded retries
  suffice up to ``p = 1e-2``);
* with loss enabled, recovery actually happened (drops > 0 over the
  sweep) and median latency is never *below* the lossless baseline;
* the same seed reproduces the same drop count (determinism).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..analysis import shapes
from ..params import SimParams
from .common import KiB, fresh_client, render_rows

ID = "loss"
TITLE = "Loss sweep — 64 KiB writes under injected packet loss"
CLAIMS = [
    "all writes complete under loss up to 1e-2 (bounded retransmits suffice)",
    "packets are actually dropped over the sweep (faults are live)",
    "lossy latency is never below the lossless baseline",
    "identical seed => identical drop counts (deterministic injection)",
]

LOSS_RATES = [0.0, 1e-4, 1e-3, 1e-2]
PROTOCOLS = ["raw", "spin", "rpc"]
#: chosen so that drops occur even in the short --quick sweep
SEED = 1
SIZE = 64 * KiB
REPEATS = 4
QUICK_REPEATS = 1


def _measure(protocol: str, loss: float, repeats: int,
             base: Optional[SimParams], seed: int = SEED) -> dict:
    params = base or SimParams()
    if loss > 0:
        params = params.with_faults(loss_prob=loss, seed=seed, retransmit=True)
    tb, client = fresh_client(protocol, params, n_storage=8)
    client.create("/bench", size=SIZE * 2)
    data = np.random.default_rng(3).integers(0, 256, SIZE, dtype=np.uint8)
    lats, completed = [], 0
    for _ in range(repeats):
        out = client.write_sync("/bench", data, protocol=protocol)
        if out.ok:
            completed += 1
            lats.append(out.latency_ns)
        tb.run(until=tb.sim.now + 2_000_000)
    nics = [tb.clients[0].nic, *(n.nic for n in tb.storage_nodes)]
    return {
        "completed": completed,
        "latency": float(np.median(lats)) if lats else float("nan"),
        "retransmits": sum(n.retransmits for n in nics),
        "drops": tb.faults.drops if tb.faults is not None else 0,
        "pending": sum(n.pending_count() for n in nics),
    }


def points(quick: bool = False) -> list[dict]:
    repeats = QUICK_REPEATS if quick else REPEATS
    return [{"loss": loss, "repeats": repeats, "seed": SEED}
            for loss in LOSS_RATES]


def run_point(point: dict, params: Optional[SimParams] = None) -> dict:
    loss, repeats, seed = point["loss"], point["repeats"], point["seed"]
    row: dict = {"loss": loss, "repeats": repeats}
    for proto in PROTOCOLS:
        pt = _measure(proto, loss, repeats, params, seed=seed)
        row[proto] = pt["latency"]
        row[f"{proto}_completed"] = pt["completed"]
        row[f"{proto}_retransmits"] = pt["retransmits"]
        row[f"{proto}_drops"] = pt["drops"]
        row[f"{proto}_pending"] = pt["pending"]
    # determinism probe: repeat one point with the same seed
    if loss > 0:
        again = _measure("raw", loss, repeats, params, seed=seed)
        row["raw_drops_again"] = again["drops"]
    return row


def check(rows: list[dict]) -> None:
    total_drops = 0
    for r in rows:
        for proto in PROTOCOLS:
            shapes.check(
                r[f"{proto}_completed"] == r["repeats"],
                f"every {proto} write completes at loss={r['loss']:g}",
            )
            shapes.check(
                r[f"{proto}_pending"] == 0,
                f"no leaked pending ops for {proto} at loss={r['loss']:g}",
            )
            total_drops += r[f"{proto}_drops"]
        if r["loss"] > 0:
            shapes.check(
                r["raw_drops_again"] == r["raw_drops"],
                f"same seed => same drops at loss={r['loss']:g}",
            )
    shapes.check(total_drops > 0, "the sweep actually dropped packets")
    base = {p: rows[0][p] for p in PROTOCOLS}
    for r in rows[1:]:
        for proto in PROTOCOLS:
            shapes.check(
                r[proto] >= base[proto] * 0.999,
                f"lossless is the latency floor for {proto} at loss={r['loss']:g}",
            )


def render(rows: list[dict]) -> str:
    disp = [
        {
            "loss": f"{r['loss']:g}",
            **{p: r[p] for p in PROTOCOLS},
            "drops": sum(r[f"{p}_drops"] for p in PROTOCOLS),
            "retx": sum(r[f"{p}_retransmits"] for p in PROTOCOLS),
        }
        for r in rows
    ]
    return render_rows(disp, ["loss", *PROTOCOLS, "drops", "retx"],
                       TITLE + " (median ns)")
