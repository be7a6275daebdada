"""Top-level CLI: ``python -m repro``.

Subcommands:

* ``info``   — print the library version and the calibrated defaults;
* ``demo``   — run a 30-second end-to-end self-test (one write per
  protocol, with functional verification, under the runtime
  sanitizer);
* ``trace``  — run one traced write and export a Chrome/Perfetto
  ``.trace.json`` (open it at https://ui.perfetto.dev);
* ``perf``   — measure simulator throughput; snapshot or check the
  committed ``BENCH_simulator.json`` baseline;
* ``slo``    — run the fixed-seed SLO scenario suite: per-phase latency
  decomposition with budget checks; snapshot or check the committed
  ``BENCH_slo.json`` baseline (see docs/observability.md);
* ``lint``   — simulation-aware static analysis (determinism,
  coroutine-protocol, resource- and telemetry-hygiene rules; see
  ``docs/simlint.md``);
* ``sanitize`` — run scenarios under the runtime sanitizer (see
  ``docs/simsan.md``);
* ``scenario`` — run one workload scenario by name or TOML spec.

Figure and table experiments run through ``python -m repro.experiments``.
"""

from __future__ import annotations

import argparse


def _int_at_least(lo: int):
    """argparse type: an int no smaller than ``lo``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's "invalid int value" message
    return parse


def _float_at_least_zero(below: float = float("inf")):
    """argparse type: a finite float in ``[0, below)``."""

    def parse(text: str) -> float:
        value = float(text)
        if not 0.0 <= value < below:  # also false for nan and inf
            raise argparse.ArgumentTypeError(f"must be finite and in [0, {below:g}), got {text}")
        return value

    parse.__name__ = "float"  # argparse's "invalid float value" message
    return parse


def _info() -> int:
    import repro
    from repro.params import SimParams

    p = SimParams()
    print(f"repro {repro.__version__} — SmartNIC-offloaded DFS building blocks (SC'22)")
    print()
    print("calibrated defaults (DESIGN.md §5):")
    print(f"  network    : {p.net.bandwidth_gbps:.0f} Gbit/s, MTU {p.net.mtu} B, "
          f"{p.net.link_latency_ns:.0f} ns links, {p.net.switch_latency_ns:.0f} ns switch")
    print(f"  PsPIN      : {p.pspin.n_clusters} clusters x {p.pspin.hpus_per_cluster} HPUs "
          f"@ {p.pspin.freq_ghz:.0f} GHz, "
          f"{p.pspin.l1_bytes_per_cluster >> 20} MiB L1/cluster + {p.pspin.l2_bytes >> 20} MiB L2")
    print(f"  descriptors: {p.pspin.request_descriptor_bytes} B/request, "
          f"~{(4 * p.pspin.l1_bytes_per_cluster + p.pspin.l2_bytes - p.pspin.dfs_wide_state_bytes) // p.pspin.request_descriptor_bytes} concurrent writes")
    print(f"  host       : PCIe {p.host.pcie_latency_ns:.0f} ns/way, "
          f"memcpy {p.host.memcpy_gbps / 8:.0f} GB/s, {p.host.cpu_cores} cores @ {p.host.cpu_freq_ghz:.0f} GHz")
    print()
    print("experiments: python -m repro.experiments list")
    return 0


def _demo(argv=None) -> int:
    import numpy as np

    from repro import EcSpec, ReplicationSpec
    from repro.experiments.common import fresh_client
    from repro.params import SimParams

    ap = argparse.ArgumentParser(prog="repro demo",
                                 description="End-to-end self-test: one verified "
                                             "write per protocol under the runtime "
                                             "sanitizer, optionally under seeded "
                                             "packet loss/corruption")
    ap.add_argument("--loss", type=float, default=0.0, metavar="P",
                    help="per-packet drop probability on every link")
    ap.add_argument("--corrupt", type=float, default=0.0, metavar="P",
                    help="per-packet corruption probability on every link")
    ap.add_argument("--seed", type=_int_at_least(0), default=0,
                    help="fault-injection RNG seed (same seed = same drops)")
    args = ap.parse_args(argv)

    params = SimParams()
    if args.loss or args.corrupt:
        try:
            params = params.with_faults(
                loss_prob=args.loss, corrupt_prob=args.corrupt, seed=args.seed,
                retransmit=True,
            )
        except ValueError as e:
            ap.error(str(e))
    faulty = params.faults.active
    if faulty:
        print(f"running the protocol demo under faults "
              f"(loss={args.loss:g}, corrupt={args.corrupt:g}, seed={args.seed})...\n")
    else:
        print("running the protocol demo (one verified write per protocol)...\n")
    data = np.random.default_rng(0).integers(0, 256, 64 * 1024, dtype=np.uint8)
    rows = []
    fault_totals = {"drops": 0, "corrupted": 0, "retransmits": 0, "timeouts": 0}
    unclean = []

    def run(protocol, **create_kw):
        label = protocol
        if create_kw.get("replication"):
            label += f" k={create_kw['replication'].k}"
        if create_kw.get("ec"):
            label += f" RS({create_kw['ec'].k},{create_kw['ec'].m})"
        tb, c = fresh_client(protocol, params, n_storage=8, telemetry=True,
                             sanitize=True)
        c.create("/demo", size=data.nbytes, **create_kw)
        kw = {"chunk_bytes": 32 * 1024} if protocol == "cpu" else {}
        # transport-level retransmits are bounded; if an op gives up
        # (very lossy links), retry like a real application would
        for _ in range(3):
            out = c.write_sync("/demo", data, protocol=protocol, **kw)
            if out.ok:
                break
        assert out.ok, (protocol, out.nacks)
        # drain trailing acks / parity traffic / retransmit watchdogs
        tb.drain()
        got = c.read_back("/demo")
        assert np.array_equal(got[: data.nbytes], data), protocol
        # quiesce: no leaked ops, handler runs, or HPU slots anywhere
        assert tb.idle(), protocol
        report = tb.sanitize_report()
        if not report.ok:
            unclean.append(label)
            print(f"{label}: {report.summary()}")
        nics = [tb.clients[0].nic, *(n.nic for n in tb.storage_nodes)]
        fault_totals["retransmits"] += sum(n.retransmits for n in nics)
        fault_totals["timeouts"] += sum(n.timeouts for n in nics)
        if tb.faults is not None:
            fault_totals["drops"] += tb.faults.drops
            fault_totals["corrupted"] += tb.faults.corrupted
        from repro.telemetry import utilization_report

        p = tb.params.pspin
        util = utilization_report(
            tb.telemetry, tb.sim.now, n_hpus_per_node=p.n_clusters * p.hpus_per_cluster
        )
        rows.append((label, out.latency_ns, util))

    run("raw")
    run("spin")
    run("rpc")
    run("rpc+rdma")
    run("spin", replication=ReplicationSpec(k=3))
    run("rdma-flat", replication=ReplicationSpec(k=3))
    run("cpu", replication=ReplicationSpec(k=3))
    run("rdma-hyperloop", replication=ReplicationSpec(k=3))
    run("spin", ec=EcSpec(k=3, m=2))
    run("inec", ec=EcSpec(k=3, m=2))

    width = max(len(p) for p, _, _ in rows)
    print(f"  {'protocol':<{width}}  {'latency':>10}  {'HPU busy':>8}  {'link busy':>9}")
    for proto, lat, util in rows:
        print(f"  {proto:<{width}}  {lat:7.0f} ns  "
              f"{util['max_hpu_busy']:7.1%}  {util['max_link_busy']:8.1%}")
    print("\nall writes verified byte-identical on the storage targets")
    print("utilization: busiest node over each demo's whole run (telemetry registry)")
    if faulty:
        print(f"faults: {fault_totals['drops']} packets dropped, "
              f"{fault_totals['corrupted']} corrupted; clients recovered with "
              f"{fault_totals['retransmits']} retransmits "
              f"({fault_totals['timeouts']} ops gave up)")
        print("quiesce verified: no pending ops, in-flight messages, or HPU leaks")
    if unclean:
        print(f"simsan: findings in {', '.join(unclean)}")
        return 1
    print(f"simsan clean: 0 findings in {len(rows)} protocol runs "
          "(schedule races, quiesce leaks, orphan spans)")
    return 0


def _trace(argv) -> int:
    import numpy as np

    from repro.dfs.layout import EcSpec, ReplicationSpec
    from repro.experiments.common import fresh_client
    from repro.telemetry import dump_metrics, write_chrome_trace

    ap = argparse.ArgumentParser(prog="repro trace",
                                 description="Run one traced write and export a "
                                             "Chrome/Perfetto trace (ui.perfetto.dev)")
    ap.add_argument("--protocol", default="spin",
                    choices=["spin", "raw", "rpc", "rpc+rdma", "cpu", "rdma-flat",
                             "rdma-hyperloop", "inec"])
    ap.add_argument("--replication", type=_int_at_least(1), metavar="K", default=None,
                    help="replicate across K nodes")
    ap.add_argument("--ec", type=_int_at_least(1), nargs=2, metavar=("K", "M"),
                    default=None, help="erasure-code as RS(K, M)")
    ap.add_argument("--size", type=_int_at_least(0), default=64 * 1024,
                    help="write size in bytes")
    ap.add_argument("--storage", type=_int_at_least(1), default=8,
                    help="number of storage nodes")
    ap.add_argument("--out", default=None, help="output path (default <protocol>.trace.json)")
    ap.add_argument("--metrics", default=None,
                    help="also dump the metrics registry (json or csv by extension)")
    args = ap.parse_args(argv)
    if args.replication and args.ec:
        ap.error("--replication and --ec are mutually exclusive")
    need = args.replication or (sum(args.ec) if args.ec else 1)
    if need > args.storage:
        ap.error(f"--storage {args.storage}: the file layout needs {need} storage nodes")

    tb, client = fresh_client(args.protocol, n_storage=args.storage, telemetry=True)
    create_kw = {}
    if args.replication:
        create_kw["replication"] = ReplicationSpec(k=args.replication)
    if args.ec:
        create_kw["ec"] = EcSpec(k=args.ec[0], m=args.ec[1])
    client.create("/traced", size=max(args.size, 1) * 2, **create_kw)
    data = np.random.default_rng(7).integers(0, 256, args.size, dtype=np.uint8)
    out = client.write_sync("/traced", data, protocol=args.protocol)
    # let trailing DMAs / acks / parity traffic land in the trace
    tb.drain()

    tel = tb.telemetry
    path = args.out or f"{args.protocol.replace('+', '-')}.trace.json"
    write_chrome_trace(tel, path)
    if args.metrics:
        fmt = "csv" if args.metrics.endswith(".csv") else "json"
        dump_metrics(tel, args.metrics, fmt=fmt, now=tb.sim.now)

    spans = tel.finished_spans()
    cats = {}
    for s in spans:
        cats[s.cat] = cats.get(s.cat, 0) + 1
    prof = tb.sim.profile()
    print(f"{args.protocol} write of {args.size} B: "
          f"{'ok' if out.ok else 'DENIED'}, latency {out.latency_ns:.0f} ns")
    print(f"trace: {path}  (open at https://ui.perfetto.dev)")
    print("  spans: " + ", ".join(f"{k}={v}" for k, v in sorted(cats.items())))
    if args.metrics:
        print(f"  metrics: {args.metrics}")
    print(f"  simulator: {prof['events_dispatched']} events "
          f"(+{prof['deferred_applied']} deferred effects), "
          f"heap high-water {prof['heap_high_water']}, "
          f"{prof['wall_ns_per_sim_ns']:.1f} wall-ns/sim-ns")
    return 0 if out.ok else 1


def _scenario(argv) -> int:
    """Run open-loop workload scenarios: one by name or a TOML file of
    specs (the built-in matrix runs as the ``scenario_matrix``
    experiment)."""
    import csv as _csv
    import sys

    from repro.scenarios import (
        SCENARIOS,
        get,
        load_toml,
        run_scenario,
        scenario_row_keys,
    )

    # argparse prints the usage line with every usage error, so the
    # pointer to the matrix experiment goes there
    ap = argparse.ArgumentParser(
        prog="repro scenario",
        usage="%(prog)s (--name NAME | --toml PATH) [options]\n"
              "the built-in matrix: python -m repro.experiments "
              "scenario_matrix [--quick] [--jobs N]",
        description="Open-loop workload scenarios (aggregated flow "
                    "generators): one built-in scenario or your own TOML "
                    "specs.")
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--name", metavar="NAME",
                       help="run one built-in scenario "
                            f"({', '.join(sorted(SCENARIOS))})")
    which.add_argument("--toml", metavar="PATH",
                       help="run every [[scenario]] spec in a TOML file")
    ap.add_argument("--quick", action="store_true",
                    help="~10x smaller populations and horizons")
    ap.add_argument("--seed", type=_int_at_least(0), default=None, metavar="S",
                    help="override the seed (default: the sweep runner's "
                         "per-point seed)")
    ap.add_argument("--engine", choices=["aggregated", "explicit"],
                    default="aggregated",
                    help="flow-generator engine (explicit is the per-client "
                         "reference; keep populations small)")
    ap.add_argument("--out", default=None, metavar="PATH",
                    help="write rows as CSV")
    args = ap.parse_args(argv)

    from repro.experiments.scenario_matrix import ID, render
    from repro.runner import point_seed

    if args.toml:
        try:
            specs = load_toml(args.toml)
        except (OSError, ValueError) as e:
            print(e, file=sys.stderr)
            return 2
        if args.quick:
            from repro.scenarios import quick_variant

            specs = [quick_variant(s) for s in specs]
    else:
        try:
            specs = [get(args.name, quick=args.quick)]
        except KeyError as e:
            print(e.args[0], file=sys.stderr)
            return 2
    rows = []
    for spec in specs:
        seed = args.seed if args.seed is not None else point_seed(
            ID, {"scenario": spec.name, "quick": args.quick})
        rows.append(run_scenario(spec, seed=seed, engine=args.engine))

    print(render(rows))
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = _csv.DictWriter(fh, fieldnames=list(scenario_row_keys))
            w.writeheader()
            w.writerows(rows)
        print(f"[{len(rows)} rows written to {args.out}]")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="repro")
    ap.add_argument("command",
                    choices=["info", "demo", "trace", "perf", "slo", "lint",
                             "sanitize", "scenario"],
                    nargs="?", default="info")
    args, rest = ap.parse_known_args(argv)
    if args.command == "info":
        return _info()
    if args.command == "demo":
        return _demo(rest)
    if args.command == "trace":
        return _trace(rest)
    if args.command == "scenario":
        return _scenario(rest)
    if args.command == "perf":
        from repro.perfsnap import main as perf_main

        return perf_main(rest)
    if args.command == "slo":
        from repro.slo import main as slo_main

        return slo_main(rest)
    if args.command == "lint":
        from repro.simlint.cli import main as lint_main

        return lint_main(rest)
    from repro.simsan.cli import main as sanitize_main

    return sanitize_main(rest)


if __name__ == "__main__":
    raise SystemExit(main())
