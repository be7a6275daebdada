"""Scenario matrix: the open-loop workload regimes, swept as one table.

The SC'22 evaluation drives its NIC data path with a handful of
closed-loop clients; real DFS front ends see open-loop traffic from
enormous populations with Zipf-popular objects and heavy-tailed sizes.
This experiment sweeps the built-in scenario matrix
(:mod:`repro.scenarios.builtin`) — hot-shard skew, synchronized incast,
self-similar on/off background, and the hot shard under seeded loss
with SLO budgets — through :mod:`repro.runner`, one deterministic row
per scenario.

Shape claims checked per row:

* the aggregated generator's schedule digest is reproducible (CI runs
  the mini-matrix twice and compares CSVs byte-for-byte);
* ``hot_shard`` actually concentrates a majority of requests on the
  pinned node while ``uniform_onoff`` stays spread out;
* ``incast`` drives a far higher peak in-flight backlog than the
  Poisson scenarios at comparable issue counts;
* every scenario quiesces and any SLO budgets hold.
"""

from __future__ import annotations

from typing import Optional

from ..analysis import shapes
from ..params import SimParams
from .common import render_rows

ID = "scenario_matrix"
TITLE = "Open-loop scenario matrix (aggregated flow generators)"
CLAIMS = [
    "hot_shard pins the majority of requests onto one storage node",
    "incast bursts drive a deep synchronized in-flight backlog",
    "uniform on/off background traffic stays spread across nodes",
    "every scenario's schedule is deterministic at a fixed seed",
]

COLUMNS = (
    "scenario", "protocol", "n_users", "issued", "ops", "failures",
    "kops_s", "p50_ns", "p99_ns", "hot_node", "hot_share",
    "peak_inflight", "slo_ok", "quiesced", "schedule_digest",
)


def points(quick: bool = False) -> list[dict]:
    from ..scenarios import MATRIX_NAMES, QUICK_NAMES

    names = QUICK_NAMES if quick else MATRIX_NAMES
    return [{"scenario": name, "quick": quick} for name in names]


def run_point(point: dict, params: Optional[SimParams] = None) -> dict:
    from ..runner import point_seed
    from ..scenarios import get, run_scenario

    spec = get(point["scenario"], quick=point.get("quick", False))
    seed = point_seed(ID, point)
    return run_scenario(spec, seed=seed, params_base=params)


def check(rows: list[dict]) -> None:
    by_name = {r["scenario"]: r for r in rows}
    for r in rows:
        name = r["scenario"]
        shapes.check(r["quiesced"], f"{name}: run did not quiesce")
        shapes.check(r["issued"] > 0, f"{name}: no requests issued")
        shapes.check(r["ops"] > 0, f"{name}: no completions in window")
        shapes.check(bool(r["schedule_digest"]), f"{name}: empty digest")
        shapes.check(
            r["slo_ok"],
            f"{name}: SLO budgets violated ({r['slo_failed'] or '-'})",
        )

    hot = by_name.get("hot_shard")
    if hot is not None:
        shapes.check(
            hot["hot_share"] >= 0.5,
            f"hot_shard: pinned node took {hot['hot_share']:.0%} < 50% "
            "of requests",
        )
        shapes.check(
            hot["hot_node"] == "sn0",
            f"hot_shard: hottest node is {hot['hot_node']}, expected sn0",
        )
    uni = by_name.get("uniform_onoff")
    if uni is not None:
        # 8 nodes, uniform popularity: no node should dominate
        shapes.check(
            uni["hot_share"] <= 0.35,
            f"uniform_onoff: a node took {uni['hot_share']:.0%} of requests",
        )
    inc = by_name.get("incast")
    if inc is not None:
        poisson_peaks = [
            r["peak_inflight"] for r in rows
            if r["scenario"] in ("hot_shard", "uniform_onoff")
        ]
        if poisson_peaks:
            shapes.check(
                inc["peak_inflight"] >= 3 * max(poisson_peaks),
                f"incast peak inflight {inc['peak_inflight']} not >> "
                f"poisson peaks {poisson_peaks}",
            )


def render(rows: list[dict]) -> str:
    return render_rows(rows, COLUMNS, title=TITLE)
