"""Recovery storm: kill a rack mid-load, measure the blast radius.

The paper's §VII leaves recovery to "monitoring services"; this
experiment exercises the full control loop we built around that hook:
64 storage nodes report heartbeats to the metadata node over the
simulated network, a whole failure domain (8 nodes) loses power in the
middle of a closed-loop foreground write load, the sweep declares the
nodes dead after three missed beats, and the re-replicator restores
every lost extent with bounded-concurrency repair writes through the
same data plane the foreground clients are using.

Per protocol the row reports the failure-detection delay, the time to
full redundancy (TTR), how many foreground operations failed against
dead replicas (the NIC reliability layer turns them into bounded-time
timeout nacks), and the foreground p99 before vs. during the storm —
with the exact per-phase anatomy of the measured window, feeding the
SLO pipeline.  The repair schedule is digested into the row, so the
fixed-seed CI run proves byte-identical recovery end to end.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Optional

import numpy as np

from ..analysis import shapes
from ..dfs.cluster import build_testbed
from ..dfs.layout import FileLayout, ReplicationSpec
from ..dfs.monitor import MonitorConfig, install_monitor
from ..dfs.replicator import ReplicatorConfig, ReReplicator
from ..params import SimParams
from ..workloads import LoadSpec, closed_loop_write_load, payload_bytes
from .common import KiB, MiB, installer_for, render_rows

ID = "recovery_storm"
TITLE = "Recovery storm: 8 of 64 nodes lost mid-load (replication k=3)"
CLAIMS = [
    "heartbeat monitoring detects every lost node within the miss budget",
    "re-replication restores full redundancy through the live data plane",
    "foreground ops against dead replicas fail in bounded time; survivors keep flowing",
    "the recovery schedule is deterministic at a fixed seed",
]

N_STORAGE = 64
N_DOMAINS = 8
#: the victims: one whole failure domain (a rack power loss)
KILL_DOMAIN = 3
N_KILL = N_STORAGE // N_DOMAINS
K = 3
PROTOCOLS = ("spin", "rpc")
BG_SIZE = 16 * KiB
FG_SIZE = 8 * KiB

HEARTBEAT_NS = 50_000.0
MISS_THRESHOLD = 3


def victims() -> list[str]:
    return [f"sn{i}" for i in range(N_STORAGE)
            if i // N_DOMAINS == KILL_DOMAIN]


def points(quick: bool = False) -> list[dict]:
    return [
        {
            "protocol": proto,
            "n_bg": 16 if quick else 48,
            "n_clients": 6 if quick else 12,
            "measure_ns": 500_000.0 if quick else 1_200_000.0,
            "kill_offset_ns": 100_000.0 if quick else 150_000.0,
        }
        for proto in PROTOCOLS
    ]


def run_point(point: dict, params: Optional[SimParams] = None) -> dict:
    from ..runner import point_seed
    from ..simnet.trace import summarize
    from ..telemetry.anatomy import decompose, phase_summary

    proto = point["protocol"]
    seed = point_seed(ID, point)
    # small per-node capacity keeps capability lengths tight; the
    # reliability layer (retransmit on, zero wire loss) is what turns a
    # write against a crashed node into a bounded-time timeout nack
    base = params or SimParams()
    p = dataclasses.replace(base, storage_capacity_bytes=4 * MiB).with_faults(
        retransmit=True, rto_ns=30_000.0, rto_max_ns=120_000.0,
        max_retransmits=3, seed=seed,
    )
    tb = build_testbed(
        n_storage=N_STORAGE,
        n_clients=4,
        params=p,
        telemetry=True,
        placement="domain",
        failure_domains={f"sn{i}": i // N_DOMAINS for i in range(N_STORAGE)},
    )
    installer = installer_for(proto)
    if installer is not None:
        installer(tb)

    # background namespace: the repair workload (written once, then
    # static — so post-recovery replicas must be byte-identical)
    from ..dfs.client import DfsClient

    bg = DfsClient(tb, client_index=0, principal="bgload")
    bg_data = payload_bytes(BG_SIZE, seed=seed)
    bg_paths = []
    for i in range(point["n_bg"]):
        path = f"/bg/{i}"
        bg.create(path, size=BG_SIZE, replication=ReplicationSpec(k=K))
        out = bg.write_sync(path, bg_data, protocol=proto)
        if not out.ok:
            raise RuntimeError(f"bg write failed: {out.nacks}")
        bg_paths.append(path)

    mon = install_monitor(
        tb, config=MonitorConfig(interval_ns=HEARTBEAT_NS,
                                 miss_threshold=MISS_THRESHOLD)
    )
    repl = ReReplicator(tb, ReplicatorConfig(max_inflight=4), monitor=mon)

    doomed = victims()
    spec = LoadSpec(
        n_clients=point["n_clients"],
        outstanding=2,
        think_ns=2_000.0,
        warmup_ns=100_000.0,
        measure_ns=point["measure_ns"],
        seed=seed,
        allow_failures=True,
    )
    t_load0 = tb.sim.now
    t_kill = t_load0 + spec.warmup_ns + point["kill_offset_ns"]

    def killer():
        yield tb.sim.timeout(t_kill - tb.sim.now)
        for v in doomed:
            tb.node(v).fail()

    tb.sim.process(killer(), name="rack-killer")
    res = closed_loop_write_load(
        tb, FG_SIZE, proto, spec, replication=ReplicationSpec(k=K)
    )

    # drain: let detection and re-replication finish (bounded loop)
    quiesced = False
    for _ in range(400):
        all_dead = all(mon.is_dead(v) for v in doomed)
        if all_dead and repl.pending() == 0:
            quiesced = True
            break
        tb.run(until=tb.sim.now + HEARTBEAT_NS)

    detect_ns = (
        max(mon.dead[v] for v in doomed) - t_kill
        if all(v in mon.dead for v in doomed)
        else float("inf")
    )
    ttr_ns = repl.last_done_t - t_kill if repl.schedule else float("inf")

    # redundancy + allocator audit
    md = tb.metadata
    dead_refs = 0
    for _path, lay in md.objects():
        if isinstance(lay, FileLayout):
            for e in list(lay.extents) + list(lay.parity_extents):
                if e.node in doomed:
                    dead_refs += 1
    alloc_ok = md.allocated_bytes() == md.live_layout_bytes()

    # byte audit: the static background files must have k identical
    # replicas again (only the sPIN path replicates to every extent;
    # host RPC commits the primary only, so there is nothing to compare)
    bytes_checked = 0
    bytes_ok = True
    if proto == "spin":
        for path in bg_paths:
            lay = md.lookup(path)
            for e in lay.extents:
                got = tb.node(e.node).memory.read(e.addr, BG_SIZE)
                bytes_checked += 1
                if not np.array_equal(got, bg_data):
                    bytes_ok = False

    # foreground anatomy: client writes only (traces start at the
    # protocol layer; repair writes and heartbeats carry no trace)
    fg = [op for op in decompose(tb.telemetry) if op.t0 >= t_load0 and op.ok]
    pre = [op for op in fg if op.t1 < t_kill]
    storm = [op for op in fg if op.t1 >= t_kill]
    phases = phase_summary(fg) if fg else {}

    def p99(phase: str) -> float:
        return (phases.get(phase) or {}).get("p99") or 0.0

    digest = hashlib.sha256(
        repr([dataclasses.astuple(r) for r in repl.schedule]).encode()
    ).hexdigest()[:16]

    return {
        "protocol": proto,
        "n_storage": N_STORAGE,
        "n_killed": len(doomed),
        "detected": sum(1 for v in doomed if v in mon.dead),
        "detect_ns": detect_ns,
        "ttr_ns": ttr_ns,
        "repairs": len(repl.schedule),
        "repair_bytes": repl.bytes_repaired,
        "peak_inflight": repl.peak_inflight,
        "failed_repairs": len(repl.failed_repairs),
        "fg_ops": res.ops,
        "fg_failures": res.failures,
        "fg_p99_pre_ns": summarize([o.end_to_end_ns for o in pre])["p99"] or 0.0,
        "fg_p99_storm_ns": summarize([o.end_to_end_ns for o in storm])["p99"] or 0.0,
        "wire_p99_ns": p99("wire"),
        "compute_p99_ns": p99("hpu") + p99("cpu"),
        "dma_p99_ns": p99("dma"),
        "dead_refs": dead_refs,
        "alloc_ok": alloc_ok,
        "bytes_checked": bytes_checked,
        "bytes_ok": bytes_ok,
        "schedule_digest": digest,
        "quiesced": quiesced and res.quiesced,
    }


def check(rows: list[dict]) -> None:
    for r in rows:
        proto = r["protocol"]
        shapes.check(r["quiesced"], f"{proto}: storm quiesces")
        shapes.check(
            r["detected"] == r["n_killed"],
            f"{proto}: all {r['n_killed']} lost nodes detected",
        )
        shapes.check(
            0.0 < r["detect_ns"] <= (MISS_THRESHOLD + 2) * HEARTBEAT_NS,
            f"{proto}: detection within the miss budget "
            f"({r['detect_ns']:.0f} ns)",
        )
        shapes.check(
            r["repairs"] > 0 and r["failed_repairs"] == 0,
            f"{proto}: re-replication ran clean ({r['repairs']} repairs)",
        )
        shapes.check(
            r["dead_refs"] == 0,
            f"{proto}: no live layout references a dead node",
        )
        shapes.check(r["alloc_ok"],
                     f"{proto}: allocator matches live layouts exactly")
        shapes.check(
            r["ttr_ns"] > 0.0 and r["ttr_ns"] < float("inf"),
            f"{proto}: full redundancy restored ({r['ttr_ns']:.0f} ns after the kill)",
        )
        shapes.check(
            r["fg_failures"] > 0,
            f"{proto}: the storm was visible to foreground clients "
            f"({r['fg_failures']} failed ops)",
        )
        shapes.check(
            r["fg_ops"] > 0,
            f"{proto}: surviving foreground traffic kept completing",
        )
        if proto == "spin":
            shapes.check(
                r["bytes_checked"] > 0 and r["bytes_ok"],
                "spin: repaired replicas are byte-identical to the payload",
            )


def render(rows: list[dict]) -> str:
    cols = ["protocol", "n_killed", "detected", "detect_ns", "ttr_ns",
            "repairs", "repair_bytes", "fg_ops", "fg_failures",
            "fg_p99_pre_ns", "fg_p99_storm_ns", "dead_refs",
            "schedule_digest", "quiesced"]
    return render_rows(rows, cols, TITLE)
