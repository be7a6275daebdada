"""Per-scenario SLO reports and phase-level latency-regression tracking.

``python -m repro slo`` runs a fixed-seed scenario suite — one isolated
write per protocol (clean and under seeded packet loss) plus a
closed-loop load run — and, for every scenario, decomposes each request
into latency phases (:mod:`repro.telemetry.anatomy`) and evaluates
declarative latency budgets:

* **exactness** — per operation the phase times must sum to the
  end-to-end latency within 1 ns; the decomposition itself enforces this
  (:class:`~repro.telemetry.anatomy.AnatomyError`), and ``repro slo``
  prints the ``DECOMPOSITION DEFECT`` and exits 1;
* **budgets** — each scenario carries an :class:`SloSpec` of
  ``"<phase>.<stat>"`` ceilings (e.g. ``end_to_end.p99``); a scenario
  with a blown budget reports ``slo: FAIL``.

Regression tracking mirrors ``repro perf``'s snapshot workflow, but on
*simulated* time, so it is machine-independent and deterministic:

* ``--out BENCH_slo.json`` / ``--update`` snapshot the per-phase
  percentiles;
* ``--check [BENCH_slo.json]`` re-runs the suite and fails (exit 1) if
  any tracked phase statistic grew beyond the noise band
  ``base * (1 + rtol) + atol`` — the band absorbs legitimate small
  timing shifts from model changes while catching real latency
  regressions phase-by-phase (a +30% ``dma`` tail is flagged even when
  the end-to-end p50 barely moves).

The suite is the SLO companion of the experiment sweeps: the same
budgets drive the ``slo_ok`` columns of ``throughput_sweep`` and the
anatomy columns of ``fig09_latency``.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .__main__ import _float_at_least_zero
from .telemetry import PHASES, SUM_TOLERANCE_NS, AnatomyError

__all__ = [
    "SloSpec",
    "SloReport",
    "check_budget_key",
    "Scenario",
    "SCENARIOS",
    "evaluate",
    "run_scenario",
    "run_suite",
    "snapshot",
    "compare_snapshots",
    "main",
]

#: phase statistics tracked in snapshots and regression-checked
TRACKED_STATS = ("p50", "p99", "p999")


def check_budget_key(key: str) -> None:
    """Reject a budget key that names no tracked statistic.

    A key is ``"<phase>.<stat>"`` with the phase one of
    :data:`repro.telemetry.PHASES` or ``end_to_end`` and the stat one of
    :data:`TRACKED_STATS`.  A misspelt key would never be measured, and
    an unmeasured budget passes, so the budget would be off unnoticed.
    """
    phase, dot, stat = key.rpartition(".")
    if not dot:
        raise ValueError(f"SLO budget {key!r} must be '<phase>.<stat>'")
    if phase != "end_to_end" and phase not in PHASES:
        raise ValueError(
            f"SLO budget {key!r}: unknown phase {phase!r}; pick one of "
            f"{('end_to_end',) + PHASES}"
        )
    if stat not in TRACKED_STATS:
        raise ValueError(
            f"SLO budget {key!r}: unknown stat {stat!r}; pick one of "
            f"{TRACKED_STATS}"
        )


# ------------------------------------------------------------------ specs
@dataclass(frozen=True)
class SloSpec:
    """Declarative latency budgets for one scenario.

    ``budgets`` maps ``"<phase>.<stat>"`` keys — any phase from
    :data:`repro.telemetry.PHASES` plus ``end_to_end``, any stat from
    :data:`TRACKED_STATS` — to ceilings in nanoseconds.  Any other key
    raises ``ValueError`` (see :func:`check_budget_key`).
    """

    budgets: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for key in self.budgets:
            check_budget_key(key)

    def items(self) -> List[Tuple[str, str, float]]:
        out = []
        for key, ns in sorted(self.budgets.items()):
            phase, _, stat = key.rpartition(".")
            out.append((phase, stat, ns))
        return out


@dataclass
class SloReport:
    """Outcome of one scenario: anatomy stats + budget verdicts."""

    scenario: str
    n_ops: int
    phases: Dict[str, Dict[str, Optional[float]]]
    #: (budget key, measured ns, budget ns, within budget)
    checks: List[Tuple[str, Optional[float], float, bool]]

    @property
    def slo_ok(self) -> bool:
        return all(ok for _, _, _, ok in self.checks)

    def to_dict(self) -> Dict[str, object]:
        return {
            "n_ops": self.n_ops,
            "slo_ok": self.slo_ok,
            "phases": {
                phase: {s: stats.get(s) for s in TRACKED_STATS}
                for phase, stats in self.phases.items()
            },
        }


def evaluate(spec: SloSpec, phases: Dict[str, Dict[str, Optional[float]]],
             scenario: str, n_ops: int) -> SloReport:
    """Check per-phase statistics against a budget spec."""
    checks: List[Tuple[str, Optional[float], float, bool]] = []
    for phase, stat, budget in spec.items():
        got = phases.get(phase, {}).get(stat)
        # a missing statistic (too few samples for the tail) cannot
        # violate a ceiling — it is reported as None and passes
        checks.append((f"{phase}.{stat}", got, budget, got is None or got <= budget))
    return SloReport(scenario=scenario, n_ops=n_ops, phases=phases, checks=checks)


# -------------------------------------------------------------- scenarios
@dataclass(frozen=True)
class Scenario:
    """One fixed-seed measurement scenario of the SLO suite."""

    name: str
    protocol: str
    size: int = 64 * 1024
    replication: Optional[int] = None
    ec: Optional[Tuple[int, int]] = None
    #: seeded per-packet loss probability (0 = clean run)
    loss: float = 0.0
    repeats: int = 3
    load: bool = False            # closed-loop load run instead of isolated writes
    openloop: bool = False        # open-loop aggregated-generator run
    write_kw: Tuple[Tuple[str, object], ...] = ()
    slo: SloSpec = field(default_factory=SloSpec)


def _e2e_slo(p50_ns: float, p99_ns: Optional[float] = None) -> SloSpec:
    return SloSpec(budgets={
        "end_to_end.p50": p50_ns,
        "end_to_end.p99": p99_ns if p99_ns is not None else p50_ns,
    })


#: Every write protocol, clean and under seeded loss, plus a closed-loop
#: load run.  Budgets are ~2x the calibrated-default measurements, so
#: they flag gross model regressions while tolerating retuning; the
#: fine-grained tracking is the snapshot comparison, not the budgets.
SCENARIOS: Tuple[Scenario, ...] = (
    Scenario("raw_64k", "raw", slo=_e2e_slo(8_000)),
    Scenario("spin_r3_64k", "spin", replication=3, slo=_e2e_slo(15_000)),
    Scenario("rpc_64k", "rpc", slo=_e2e_slo(20_000)),
    Scenario("rpc_rdma_64k", "rpc+rdma", slo=_e2e_slo(20_000)),
    Scenario("cpu_r3_64k", "cpu", replication=3,
             write_kw=(("chunk_bytes", 32 * 1024),), slo=_e2e_slo(35_000)),
    Scenario("rdma_flat_r3_64k", "rdma-flat", replication=3, slo=_e2e_slo(15_000)),
    Scenario("hyperloop_r3_64k", "rdma-hyperloop", replication=3,
             write_kw=(("chunk_bytes", 32 * 1024),), slo=_e2e_slo(30_000)),
    Scenario("inec_ec32_64k", "inec", ec=(3, 2), slo=_e2e_slo(50_000)),
    # seeded loss: the same writes with the reliability layer active.
    # retransmit-phase time is budgeted explicitly: RTO stalls must stay
    # bounded, and on a clean run the phase must be (and is) zero.
    Scenario("spin_r3_64k_lossy", "spin", replication=3, loss=2e-3,
             slo=SloSpec(budgets={"end_to_end.p99": 500_000,
                                  "retransmit.p99": 450_000})),
    Scenario("raw_64k_lossy", "raw", loss=2e-3,
             slo=SloSpec(budgets={"end_to_end.p99": 500_000,
                                  "retransmit.p99": 450_000})),
    Scenario("rdma_flat_r3_64k_lossy", "rdma-flat", replication=3, loss=2e-3,
             slo=SloSpec(budgets={"end_to_end.p99": 500_000,
                                  "retransmit.p99": 450_000})),
    # closed-loop load: anatomy under contention (queueing shows up in
    # host_queue/other, not in the compute phases)
    Scenario("load_spin_8k", "spin", size=8 * 1024, load=True,
             slo=SloSpec(budgets={"end_to_end.p50": 8_000,
                                  "end_to_end.p99": 12_000})),
    # open-loop load: a 2000-user Zipf population through the aggregated
    # flow generators — arrivals don't wait for completions, so queueing
    # here reflects offered load, not the closed-loop ceiling
    Scenario("openloop_spin_8k", "spin", size=8 * 1024, openloop=True,
             slo=SloSpec(budgets={"end_to_end.p50": 8_000,
                                  "end_to_end.p99": 12_000})),
)

#: the subset exercised by ``--quick`` (CI smoke)
QUICK_NAMES = ("raw_64k", "spin_r3_64k", "rpc_64k", "spin_r3_64k_lossy",
               "load_spin_8k")

#: seed for fault-injection streams and payloads (fixed: the whole
#: suite must be deterministic for snapshot comparison)
SEED = 2


def run_scenario(sc: Scenario) -> SloReport:
    """Run one scenario with telemetry on; decompose and evaluate."""
    from .dfs.layout import EcSpec, ReplicationSpec
    from .experiments.common import fresh_client
    from .params import SimParams
    from .telemetry.anatomy import decompose, phase_summary
    from .workloads import LoadSpec, closed_loop_write_load, payload_bytes

    params = SimParams()
    if sc.loss > 0.0:
        params = params.with_faults(seed=SEED, loss_prob=sc.loss, retransmit=True)
    tb, client = fresh_client(sc.protocol, params, n_storage=6, telemetry=True)

    if sc.load:
        spec = LoadSpec(n_clients=8, outstanding=2, think_ns=2_000.0,
                        warmup_ns=50_000.0, measure_ns=300_000.0, seed=SEED)
        res = closed_loop_write_load(tb, sc.size, sc.protocol, spec)
        if not res.quiesced:
            raise RuntimeError(f"{sc.name}: load run did not quiesce")
        assert res.phase_latency is not None
        return evaluate(sc.slo, res.phase_latency, sc.name, res.ops)

    if sc.openloop:
        from .workloads.openloop import (
            ArrivalSpec,
            OpenLoopSpec,
            PopularitySpec,
            SizeSpec,
            open_loop_write_load,
        )

        ospec = OpenLoopSpec(
            n_users=2000,
            arrival=ArrivalSpec(kind="poisson", rate_hz=50.0),
            popularity=PopularitySpec(n_objects=256, alpha=1.0),
            size=SizeSpec(dist="fixed", fixed_bytes=sc.size),
            warmup_ns=500_000.0,
            measure_ns=2_000_000.0,
            seed=SEED,
        )
        ores, _nodes = open_loop_write_load(tb, ospec, sc.protocol)
        if not ores.quiesced:
            raise RuntimeError(f"{sc.name}: open-loop run did not quiesce")
        assert ores.phase_latency is not None
        return evaluate(sc.slo, ores.phase_latency, sc.name, ores.ops)

    create_kw: dict = {}
    if sc.replication:
        create_kw["replication"] = ReplicationSpec(k=sc.replication)
    if sc.ec:
        create_kw["ec"] = EcSpec(k=sc.ec[0], m=sc.ec[1])
    client.create("/slo", size=max(sc.size, 1) * 2, **create_kw)
    data = payload_bytes(sc.size, seed=SEED)
    kw = dict(sc.write_kw)
    for _ in range(sc.repeats):
        # transport retransmits are bounded; under heavy loss an op can
        # give up — retry like an application (still deterministic)
        for _attempt in range(3):
            out = client.write_sync("/slo", data, protocol=sc.protocol, **kw)
            if out.ok:
                break
        if not out.ok:
            raise RuntimeError(f"{sc.name}: write failed: {out.nacks}")
    # drain trailing acks / parity traffic / retransmission watchdogs so
    # every child span of the last request is closed
    tb.drain()

    # request roots carry strategy-qualified protocol labels (`spin-ring`,
    # `inec-triec-rs(3,2)`): match the base name as a prefix; the testbed
    # is the scenario's own, so only its writes are in the sink
    base = sc.protocol.split("-")[0].split("+")[0]
    ops = [op for op in decompose(tb.telemetry)
           if op.op == "write" and op.ok and op.protocol.startswith(base)]
    if len(ops) < sc.repeats:
        raise RuntimeError(f"{sc.name}: expected >= {sc.repeats} ops, got {len(ops)}")
    return evaluate(sc.slo, phase_summary(ops), sc.name, len(ops))


def run_suite(quick: bool = False) -> List[SloReport]:
    names = set(QUICK_NAMES) if quick else None
    return [
        run_scenario(sc) for sc in SCENARIOS if names is None or sc.name in names
    ]


# -------------------------------------------------------------- snapshots
def snapshot(reports: List[SloReport]) -> Dict[str, object]:
    return {
        "seed": SEED,
        "scenarios": {r.scenario: r.to_dict() for r in reports},
    }


def compare_snapshots(snap: Dict[str, object], base: Dict[str, object],
                      rtol: float = 0.10, atol_ns: float = 200.0) -> List[str]:
    """Phase-level regression check of ``snap`` against ``base``.

    A tracked statistic regresses when it exceeds the noise band
    ``base * (1 + rtol) + atol_ns``.  Missing scenarios and violated
    budgets (of every scenario that ran, baselined or not) are failures
    too; improvements never are.  Returns human-readable failure
    strings (empty = pass).
    """
    failures: List[str] = []
    base_sc = base.get("scenarios", {})
    snap_sc = snap.get("scenarios", {})
    for name, sdata in sorted(snap_sc.items()):
        if not sdata["slo_ok"]:
            failures.append(f"{name}: SLO budget violated")
    for name, bdata in sorted(base_sc.items()):
        sdata = snap_sc.get(name)
        if sdata is None:
            failures.append(f"{name}: scenario missing from this run")
            continue
        for phase, bstats in sorted(bdata.get("phases", {}).items()):
            sstats = sdata.get("phases", {}).get(phase, {})
            for stat in TRACKED_STATS:
                want, got = bstats.get(stat), sstats.get(stat)
                if want is None or got is None:
                    continue
                ceil = want * (1.0 + rtol) + atol_ns
                if got > ceil:
                    failures.append(
                        f"{name}: {phase}.{stat} {got:,.0f} ns > "
                        f"baseline {want:,.0f} ns + noise band "
                        f"(+{rtol:.0%}, +{atol_ns:.0f} ns)"
                    )
    return failures


# -------------------------------------------------------------------- CLI
def _render(reports: List[SloReport]) -> str:
    lines = []
    head = (f"{'scenario':<22} {'ops':>4} {'e2e p50':>10} {'e2e p99':>10}  "
            f"{'slo':<4} checks")
    lines.append(head)
    lines.append("-" * len(head))
    for r in reports:
        e2e = r.phases.get("end_to_end", {})
        failed = [k for k, _, _, ok in r.checks if not ok]

        def fmt(v: Optional[float]) -> str:
            return f"{v:,.0f}" if v is not None else "-"

        lines.append(
            f"{r.scenario:<22} {r.n_ops:>4} {fmt(e2e.get('p50')):>10} "
            f"{fmt(e2e.get('p99')):>10}  "
            f"{'ok' if r.slo_ok else 'FAIL':<4} "
            + (", ".join(failed) if failed else f"{len(r.checks)} budgets")
        )
    return "\n".join(lines)


def main(argv: Optional[list] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro slo",
        description="Run the fixed-seed SLO scenario suite: per-phase "
                    "latency decomposition, budget checks, and snapshot "
                    "regression tracking (see docs/observability.md).",
    )
    ap.add_argument("--out", metavar="PATH",
                    help="write the snapshot as JSON")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the committed BENCH_slo.json baseline")
    ap.add_argument("--check", nargs="?", const="BENCH_slo.json", metavar="PATH",
                    help="compare against a baseline snapshot "
                         "(default BENCH_slo.json); exit 1 on regression")
    ap.add_argument("--quick", action="store_true",
                    help="run the CI smoke subset of scenarios")
    ap.add_argument("--rtol", type=_float_at_least_zero(), default=0.10, metavar="FRAC",
                    help="relative noise band for --check (default 0.10)")
    ap.add_argument("--atol", type=_float_at_least_zero(), default=200.0, metavar="NS",
                    help="absolute noise band in ns for --check (default 200)")
    args = ap.parse_args(argv)
    base = None
    if args.check:
        # read the baseline before the (slow) measurement, so a bad path
        # fails at once
        try:
            with open(args.check) as fh:
                base = json.load(fh)
        except (OSError, ValueError) as exc:
            ap.error(f"--check: cannot read baseline {args.check!r}: {exc}")

    try:
        reports = run_suite(quick=args.quick)
    except AnatomyError as exc:
        print("DECOMPOSITION DEFECT (phases must sum to end-to-end "
              f"within {SUM_TOLERANCE_NS} ns):\n  - {exc}")
        return 1
    print(_render(reports))

    snap = snapshot(reports)
    out_path = args.out or ("BENCH_slo.json" if args.update else None)
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(snap, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nsnapshot written to {out_path}")

    rc = 0
    if base is not None:
        failures = compare_snapshots(snap, base, rtol=args.rtol, atol_ns=args.atol)
        if failures:
            print("\nSLO REGRESSION:")
            for f in failures:
                print(f"  - {f}")
            rc = 1
        else:
            print(f"\nslo check vs {args.check} passed "
                  f"(noise band +{args.rtol:.0%} / +{args.atol:.0f} ns per phase stat)")

    blown = [r for r in reports if not r.slo_ok]
    if blown:
        print("\nSLO BUDGET VIOLATION:")
        for r in blown:
            for key, got, budget, ok in r.checks:
                if not ok:
                    print(f"  - {r.scenario}: {key} {got:,.0f} ns > "
                          f"budget {budget:,.0f} ns")
        return 1
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
