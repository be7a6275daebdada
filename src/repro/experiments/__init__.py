"""Experiment registry: one module per paper table/figure.

Each module has one of two shapes, and :func:`run` is the one way to
run either:

* a **sweep** defines ``points(quick)`` and ``run_point(point, params)``
  and runs through :func:`repro.runner.run_sweep` (``--jobs``, result
  cache; every point builds its own testbed);
* a **table** defines ``run(params, quick)``: the analytic experiments
  (``fig04``, ``fig07``, ``fig16_budget``, ``table3``), which simulate
  nothing.

Run from the command line::

    python -m repro.experiments list
    python -m repro.experiments fig06
    python -m repro.experiments all --quick
"""

from __future__ import annotations

from types import ModuleType
from typing import Optional

from ..params import SimParams

from . import (
    fig04_nic_memory,
    fig06_auth_latency,
    fig07_pspin_overheads,
    fig09_goodput,
    fig09_replication_latency,
    fig10_replication_factor,
    fig11_table1_handler_stats,
    fig15_ec_bandwidth,
    fig15_ec_latency,
    fig16_hpu_budget,
    fig16_table2_ec_handlers,
    loss_sweep,
    recovery_storm,
    scenario_matrix,
    table3_survey,
    throughput_sweep,
)

REGISTRY: dict[str, ModuleType] = {
    m.ID: m
    for m in (
        fig04_nic_memory,
        fig06_auth_latency,
        fig07_pspin_overheads,
        fig09_replication_latency,
        fig09_goodput,
        fig10_replication_factor,
        fig11_table1_handler_stats,
        fig15_ec_latency,
        fig15_ec_bandwidth,
        fig16_table2_ec_handlers,
        fig16_hpu_budget,
        loss_sweep,
        recovery_storm,
        scenario_matrix,
        table3_survey,
        throughput_sweep,
    )
}

__all__ = ["REGISTRY", "run"]


def run(
    eid: str,
    quick: bool = False,
    params: Optional[SimParams] = None,
    jobs: int = 1,
    cache: bool = False,
    cache_dir: Optional[str] = None,
) -> list[dict]:
    """Run experiment ``eid`` and return its rows.

    A sweep fans its points out over ``jobs`` worker processes and, with
    ``cache=True``, reuses rows cached under ``cache_dir``; its
    wall-clock and cache accounting lands in ``runner.LAST_STATS``.  A
    table ignores ``jobs`` and the cache."""
    mod = REGISTRY[eid]
    if hasattr(mod, "run_point"):
        from ..runner import run_sweep

        return run_sweep(eid, mod.points(quick), params=params, jobs=jobs,
                         cache=cache, cache_dir_override=cache_dir)
    return mod.run(params, quick)
