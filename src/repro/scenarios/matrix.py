"""Scenario runner: one :class:`ScenarioSpec` in, one flat row out.

Builds the testbed the spec describes (topology, placement, fault
campaign), creates the Zipf namespace (optionally pinning the hottest
objects onto one node — the hot-shard lever), drives the open-loop
engine, and reduces the run to a flat, CSV-friendly row: throughput,
latency percentiles, per-node skew, overload and fault counters, the
schedule digest (the CI determinism handle), the outcome digest (every
request's completion instant and verdict) and — when the spec carries
budgets — a per-phase SLO verdict via :mod:`repro.slo`.

Rows are deterministic functions of ``(spec, seed)``: everything the
simulation consumes is derived from the seed, so the ``scenario_matrix``
experiment can fan rows out across processes and still produce
byte-identical CSVs (the property ``scripts/ci.sh`` pins).
"""

from __future__ import annotations

import dataclasses
from typing import Generator, Optional

from .spec import ScenarioSpec

__all__ = ["run_scenario", "scenario_row_keys"]

#: stable row schema (CSV column order)
scenario_row_keys = (
    "scenario", "protocol", "engine", "n_users", "n_storage",
    "issued", "ops", "failures", "offered_kops_s", "kops_s",
    "goodput_gbps", "p50_ns", "p99_ns", "p999_ns",
    "active_users", "peak_inflight", "hot_node", "hot_share",
    "slo_ok", "slo_failed", "quiesced", "schedule_digest", "outcome_digest",
)


def run_scenario(
    spec: ScenarioSpec,
    seed: int,
    engine: str = "aggregated",
    params_base=None,
    timings: Optional[dict] = None,
    sanitize: bool = False,
) -> dict:
    """Run one scenario end to end and return its row.

    ``timings``, when given, receives deterministic simulator-side cost
    figures (``events`` dispatched) that don't belong in the row — the
    perf harness wants them, CSV determinism doesn't.  With
    ``sanitize=True`` the run executes under :mod:`repro.simsan` (same
    row, byte-identical schedule) and ``timings["sanitizer"]`` receives
    the quiesce-swept :class:`~repro.simsan.Report`."""
    from ..dfs.layout import ReplicationSpec
    from ..experiments.common import installer_for
    from ..params import MiB, SimParams
    from ..workloads.openloop import open_loop_write_load

    spec.validate()
    base = params_base or SimParams()
    p = dataclasses.replace(
        base, storage_capacity_bytes=spec.topology.storage_mib * MiB
    )
    if spec.faults.loss > 0.0 or spec.faults.corrupt > 0.0:
        p = p.with_faults(
            seed=seed,
            loss_prob=spec.faults.loss,
            corrupt_prob=spec.faults.corrupt,
            retransmit=True,
        )
    elif spec.faults.kill_node_index is not None:
        # node crashes need the reliability layer for bounded-time nacks
        p = p.with_faults(retransmit=True, seed=seed)

    from ..dfs.cluster import build_testbed

    tb = build_testbed(
        n_storage=spec.topology.n_storage,
        n_clients=spec.topology.n_clients,
        params=p,
        telemetry=spec.telemetry,
        placement=spec.topology.placement,
        sanitize=sanitize,
    )
    installer = installer_for(spec.protocol)
    if installer is not None:
        installer(tb)

    if spec.faults.kill_node_index is not None:
        victim = tb.metadata.nodes[spec.faults.kill_node_index]
        t_kill = tb.sim.now + spec.faults.kill_at_ns

        def killer() -> Generator:
            yield tb.sim.timeout(t_kill - tb.sim.now)
            tb.node(victim).fail()

        tb.sim.process(killer(), name="scenario-killer")

    wl = dataclasses.replace(spec.workload, seed=seed)
    replication = (
        ReplicationSpec(k=spec.replication_k) if spec.replication_k > 1 else None
    )
    pin_node = (
        tb.metadata.nodes[spec.pin_node_index] if spec.pin_top > 0 else None
    )
    res, node_counts = open_loop_write_load(
        tb,
        wl,
        protocol=spec.protocol,
        replication=replication,
        object_bytes=spec.object_bytes,
        pin_top=spec.pin_top,
        pin_node=pin_node,
        engine=engine,
    )

    hot_node, hot_count = "", 0
    for node in sorted(node_counts):
        if node_counts[node] > hot_count:
            hot_node, hot_count = node, node_counts[node]
    hot_share = hot_count / res.issued if res.issued else 0.0

    slo_ok, slo_failed = True, ""
    if spec.slo_budgets:
        from ..slo import SloSpec, evaluate

        assert res.phase_latency is not None, "budgets need telemetry phases"
        report = evaluate(SloSpec(budgets=dict(spec.slo_budgets)),
                          res.phase_latency, spec.name, res.ops)
        slo_ok = report.slo_ok
        slo_failed = ";".join(
            key for key, _got, _budget, ok in report.checks if not ok
        )

    if timings is not None:
        timings["events"] = tb.sim.events_dispatched
        timings["deferred_applied"] = tb.sim.deferred_applied
    if sanitize:
        # leak sweeps are defined at quiesce; a run that never drained
        # (e.g. a killed node with ops the workload gave up on) reports
        # only schedule findings and orphans
        report = tb.sanitize_report(quiesce=res.quiesced)
        if timings is not None:
            timings["sanitizer"] = report

    lat = res.latency
    row = {
        "scenario": spec.name,
        "protocol": spec.protocol,
        "engine": engine,
        "n_users": wl.n_users,
        "n_storage": spec.topology.n_storage,
        "issued": res.issued,
        "ops": res.ops,
        "failures": res.failures_total,
        "offered_kops_s": round(res.offered_kops_per_s, 3),
        "kops_s": round(res.kops_per_s, 3),
        "goodput_gbps": round(res.goodput_gbps, 4),
        "p50_ns": lat["p50"] if lat else None,
        "p99_ns": lat["p99"] if lat else None,
        "p999_ns": lat["p999"] if lat else None,
        "active_users": res.active_users,
        "peak_inflight": res.inflight_peak,
        "hot_node": hot_node,
        "hot_share": round(hot_share, 4),
        "slo_ok": slo_ok,
        "slo_failed": slo_failed,
        "quiesced": res.quiesced,
        "schedule_digest": res.schedule_digest[:16],
        "outcome_digest": res.outcome_digest,
    }
    assert tuple(row) == scenario_row_keys
    return row
