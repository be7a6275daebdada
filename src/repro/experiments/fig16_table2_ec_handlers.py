"""Fig. 16 (left) + Table II: EC handler running times.

Table II (paper), per 2 KiB packet:

=========  =====  ======  =====  ====  ======  ====  =====  ====  =====
type        HH ns   PH ns  CH ns  HH i    PH i  CH i  HHipc  PHipc CHipc
=========  =====  ======  =====  ====  ======  ====  =====  ====  =====
RS(3,2)      215   16681    105   120   11672    35   0.56   0.7   0.33
RS(6,3)      215   23018     82   120   16028    35   0.56   0.7   0.43
=========  =====  ======  =====  ====  ======  ====  =====  ====  =====

The payload handler is dominated by the GF(2^8) encode loop: 5
instructions per byte for RS(3,2) and 7 for RS(6,3) (§VI-C(c)).
Outliers in Fig. 16 come from the shorter first/last packets; we filter
to full-MTU packets for the Table II comparison, as the paper's
dominant population.
"""

from __future__ import annotations

from typing import Optional

from ..analysis import shapes
from ..dfs.layout import EcSpec
from ..params import SimParams
from ..workloads import payload_bytes
from .common import KiB, fresh_client, render_rows

ID = "fig16_table2"
TITLE = "Fig. 16 L / Table II — EC data-node handler statistics (full-MTU packets)"
CLAIMS = [
    "RS(3,2) PH ~11672 instructions (5/byte), RS(6,3) ~16028 (7/byte)",
    "PH durations ~16.7 us and ~23 us at IPC ~0.7",
    "EC payload handlers exceed the 32-HPU 400 Gbit/s budget (~1310 ns)",
]

SCHEMES = [(3, 2), (6, 3)]
WRITE_BYTES = 256 * KiB


def points(quick: bool = False) -> list[dict]:
    n_writes = 2 if quick else 4
    return [{"k": k, "m": m, "n_writes": n_writes} for k, m in SCHEMES]


def run_point(point: dict, params: Optional[SimParams] = None) -> dict:
    k, m = point["k"], point["m"]
    tb, client = fresh_client("spin", params)
    client.create("/bench", size=WRITE_BYTES, ec=EcSpec(k=k, m=m))
    data = payload_bytes(WRITE_BYTES)
    for _ in range(point["n_writes"]):
        out = client.write_sync("/bench", data, protocol="spin")
        assert out.ok
    layout = client.open("/bench")
    freq = tb.params.pspin.freq_ghz
    # aggregate over the data nodes (they run the encode loop)
    durs, instrs = [], []
    mtu = tb.params.net.mtu
    full_instr_min = 5 * (mtu - 256)  # filter: full-ish payload packets
    for ext in layout.extents:
        st = tb.node(ext.node).accelerator.stats["payload:dfs"]
        for d, i in zip(st.durations_ns, st.instructions):
            if i >= full_instr_min:
                durs.append(d)
                instrs.append(i)
    hh = tb.node(layout.primary.node).accelerator.stats["header:dfs"]
    ch = tb.node(layout.primary.node).accelerator.stats["completion:dfs"]
    mean_d = sum(durs) / len(durs)
    mean_i = sum(instrs) / len(instrs)
    return {
        "scheme": f"RS({k},{m})",
        "HH_ns": hh.mean_duration(),
        "PH_ns": mean_d,
        "CH_ns": ch.mean_duration(),
        "HH_instr": hh.mean_instructions(),
        "PH_instr": mean_i,
        "CH_instr": ch.mean_instructions(),
        "PH_ipc": mean_i / (mean_d * freq),
        "n_ph": len(durs),
    }


def check(rows: list[dict]) -> None:
    by = {r["scheme"]: r for r in rows}
    rs32, rs63 = by["RS(3,2)"], by["RS(6,3)"]
    # instruction counts: exact for full-MTU packets
    shapes.assert_ratio_between(rs32["PH_instr"], 11672, 0.97, 1.03,
                                "RS(3,2) PH ~11672 instructions")
    shapes.assert_ratio_between(rs63["PH_instr"], 16028, 0.97, 1.03,
                                "RS(6,3) PH ~16028 instructions")
    # 5 instr/byte (RS(3,2)) and 7 instr/byte (RS(6,3)) on 2 KiB payloads
    shapes.check(11300 <= rs32["PH_instr"] <= 12050,
                 f"RS(3,2) PH in 11300-12050 instructions (got {rs32['PH_instr']:.0f})")
    shapes.check(15550 <= rs63["PH_instr"] <= 16500,
                 f"RS(6,3) PH in 15550-16500 instructions (got {rs63['PH_instr']:.0f})")
    # durations within tolerance of Table II
    shapes.assert_ratio_between(rs32["PH_ns"], 16681, 0.8, 1.35, "RS(3,2) PH ~16.7 us")
    shapes.assert_ratio_between(rs63["PH_ns"], 23018, 0.8, 1.35, "RS(6,3) PH ~23 us")
    for r in rows:
        shapes.check(0.55 <= r["PH_ipc"] <= 0.75, f"{r['scheme']} PH IPC ~0.7 (got {r['PH_ipc']:.2f})")
        shapes.assert_ratio_between(r["HH_ns"], 215, 0.9, 1.1, f"{r['scheme']} HH ~215 ns")
        shapes.check(abs(r["CH_instr"] - 35) < 1, f"{r['scheme']} CH = 35 instructions")
        # these handlers cannot sustain line rate on 32 HPUs (§VI-C)
        budget_400g = 32 * 2048 * 8 / 400.0
        shapes.check(r["PH_ns"] > budget_400g, f"{r['scheme']} PH exceeds 400G budget")


def render(rows: list[dict]) -> str:
    cols = ["scheme", "HH_ns", "PH_ns", "CH_ns", "HH_instr", "PH_instr", "CH_instr", "PH_ipc", "n_ph"]
    return render_rows(rows, cols, TITLE)
