"""Fig. 11 + Table I: handler running times for replicated writes.

Measured on the primary storage node under a sustained stream of
512 KiB writes (the regime of the goodput experiment) for three
configurations: plain writes (k=1), sPIN-Ring k=4 and sPIN-PBT k=4.

Table I (paper):

===========  =====  =====  =====  ====  ====  ====  =====  =====  =====
type          HH ns  PH ns  CH ns  HH i  PH i  CH i  HHipc  PHipc  CHipc
===========  =====  =====  =====  ====  ====  ====  =====  =====  =====
k=1            211     92    107   120    55    66   0.57   0.60   0.62
k=4, Ring      212    193    146   120   105    65   0.57   0.54   0.44
k=4, PBT       214   2106   1487   120   130    82   0.56   0.06   0.06
===========  =====  =====  =====  ====  ====  ====  =====  =====  =====

Instruction counts are exact inputs of the cost model; durations for
k=1 are near-exact; the ring/PBT payload-handler stretch must *emerge*
from egress contention, so those get wide tolerances.
"""

from __future__ import annotations

from typing import Optional

from ..analysis import shapes
from ..dfs.layout import ReplicationSpec
from ..params import SimParams
from ..simnet.trace import summarize
from ..workloads import measure_goodput, payload_bytes
from .common import KiB, fresh_client, render_rows

ID = "fig11_table1"
TITLE = "Fig. 11 / Table I — replication handler statistics"
CLAIMS = [
    "HH ~211 ns / 120 instructions for all strategies",
    "plain-write PH ~92 ns / 55 instructions",
    "ring PH ~193 ns / 105 instructions (one forward per packet)",
    "PBT PH inflates to ~2 us with IPC ~0.06 (egress back-pressure)",
    "k=1 and ring PHs fit the 400 Gbit/s cycle budget; PBT does not",
]

CONFIGS = [("k=1", 1, "ring"), ("k=4,Ring", 4, "ring"), ("k=4,PBT", 4, "pbt")]
WRITE_BYTES = 512 * KiB


def points(quick: bool = False) -> list[dict]:
    n_ops = 6 if quick else 16
    return [
        {"type": label, "k": k, "strategy": strategy, "n_ops": n_ops}
        for label, k, strategy in CONFIGS
    ]


def run_point(point: dict, params: Optional[SimParams] = None) -> dict:
    k, strategy = point["k"], point["strategy"]
    tb, client = fresh_client("spin", params)
    repl = ReplicationSpec(k=k, strategy=strategy) if k > 1 else None
    client.create("/bench", size=WRITE_BYTES, replication=repl)
    data = payload_bytes(WRITE_BYTES)
    measure_goodput(
        tb,
        lambda i: client.write("/bench", data, protocol="spin"),
        n_ops=point["n_ops"],
        op_bytes=WRITE_BYTES,
        window=8,
    )
    primary = tb.node(client.open("/bench").primary.node)
    accel = primary.accelerator
    freq = tb.params.pspin.freq_ghz
    row: dict = {"type": point["type"]}
    for htype, col in [("header", "HH"), ("payload", "PH"), ("completion", "CH")]:
        st = accel.stats[f"{htype}:dfs"]
        row[f"{col}_ns"] = st.mean_duration()
        row[f"{col}_instr"] = st.mean_instructions()
        row[f"{col}_ipc"] = st.mean_ipc(freq)
    # Fig. 11 shows *distributions*; record the PH spread too
    ph = summarize(accel.stats["payload:dfs"].durations_ns)
    row["PH_p50"] = ph["median"]
    row["PH_p99"] = ph["p99"]
    return row


def check(rows: list[dict]) -> None:
    by = {r["type"]: r for r in rows}
    k1, ring, pbt = by["k=1"], by["k=4,Ring"], by["k=4,PBT"]
    # exact instruction counts (cost-model inputs)
    shapes.check(abs(k1["HH_instr"] - 120) < 1, "HH = 120 instructions")
    shapes.check(abs(k1["PH_instr"] - 55) < 1, "k=1 PH = 55 instructions")
    shapes.check(abs(ring["PH_instr"] - 105) < 1, "ring PH = 105 instructions")
    shapes.check(abs(pbt["PH_instr"] - 130) < 1, "pbt PH = 130 instructions")
    # calibrated durations
    shapes.assert_ratio_between(k1["HH_ns"], 211, 0.95, 1.05, "HH ~211 ns")
    shapes.assert_ratio_between(k1["PH_ns"], 92, 0.9, 1.15, "k=1 PH ~92 ns")
    shapes.assert_ratio_between(ring["PH_ns"], 193, 0.7, 1.6, "ring PH ~193 ns")
    # emergent PBT collapse
    shapes.check(pbt["PH_ns"] > 3 * ring["PH_ns"], "PBT PH >> ring PH (egress stalls)")
    shapes.check(pbt["PH_ipc"] < 0.25, f"PBT PH IPC collapses (got {pbt['PH_ipc']:.2f})")
    shapes.check(ring["PH_ipc"] > 0.4, "ring PH IPC stays healthy")
    # cycle budget at 400 Gbit/s, 2 KiB packets, 32 HPUs: ~1310 ns/handler
    budget = 32 * 2048 * 8 / 400.0
    shapes.check(ring["PH_ns"] < budget, "ring PH within 400G budget")
    shapes.check(k1["PH_ns"] < budget, "k=1 PH within 400G budget")
    shapes.check(pbt["PH_ns"] > budget / 2, "PBT PH pressures the budget")


def render(rows: list[dict]) -> str:
    cols = ["type", "HH_ns", "PH_ns", "PH_p50", "PH_p99", "CH_ns",
            "HH_instr", "PH_instr", "CH_instr", "HH_ipc", "PH_ipc", "CH_ipc"]
    disp = [{c: (round(r[c], 2) if isinstance(r[c], float) else r[c]) for c in cols} for r in rows]
    return render_rows(disp, cols, TITLE)
