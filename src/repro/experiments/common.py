"""Shared experiment plumbing.

Each experiment module exposes:

* ``ID``/``TITLE``/``CLAIMS`` — identification + the paper's qualitative
  claims it reproduces;
* either ``points(quick)`` + ``run_point(point, params) -> row`` (a
  sweep) or ``run(params=None, quick=False) -> rows`` (a table); run
  either through :func:`repro.experiments.run`;
* ``check(rows)`` — raises :class:`~repro.analysis.shapes.ShapeError`
  when a claimed shape fails;
* ``render(rows) -> str`` — fixed-width table for humans.

``measure_latency`` builds a fresh, isolated testbed per data point so
sweep points never share queue state.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from ..dfs.client import DfsClient
from ..dfs.cluster import Testbed, build_testbed
from ..dfs.layout import EcSpec, ReplicationSpec
from ..params import SimParams
from ..workloads import measure_write_latency

__all__ = [
    "KiB",
    "MiB",
    "fresh_client",
    "installer_for",
    "measure_anatomy",
    "measure_latency",
    "render_rows",
    "size_label",
]

KiB = 1024
MiB = 1024 * 1024


def installer_for(protocol: str) -> Optional[Callable[[Testbed], None]]:
    """Target-personality installer for a protocol name (None when the
    protocol needs no storage-side setup).  Shared by experiments and
    the ``python -m repro`` CLI."""
    # local imports keep experiments importable without cycles
    from ..protocols import (
        install_cpu_replication_targets,
        install_hyperloop_targets,
        install_inec_targets,
        install_rpc_rdma_targets,
        install_rpc_targets,
        install_spin_targets,
    )

    return {
        "spin": install_spin_targets,
        "raw": None,
        "rpc": install_rpc_targets,
        "rpc+rdma": install_rpc_rdma_targets,
        "cpu": install_cpu_replication_targets,
        "rdma-flat": None,
        "rdma-hyperloop": install_hyperloop_targets,
        "inec": install_inec_targets,
    }[protocol]


def fresh_client(
    protocol: str,
    params: Optional[SimParams] = None,
    n_storage: int = 10,
    telemetry: bool = False,
    sanitize: bool = False,
) -> tuple[Testbed, DfsClient]:
    """A new testbed configured for ``protocol`` plus a client: the one
    single-protocol set-up (build, install the target personality,
    attach a :class:`DfsClient` to the first client host)."""
    tb = build_testbed(n_storage=n_storage, params=params, telemetry=telemetry,
                       sanitize=sanitize)
    installer = installer_for(protocol)
    if installer is not None:
        installer(tb)
    return tb, DfsClient(tb)


def measure_latency(
    protocol: str,
    size: int,
    params: Optional[SimParams] = None,
    replication: Optional[ReplicationSpec] = None,
    ec: Optional[EcSpec] = None,
    repeats: int = 3,
    **write_kw,
) -> float:
    """Median isolated-write latency on a fresh testbed."""
    tb, client = fresh_client(protocol, params)
    client.create("/bench", size=max(size, 1) * 2, replication=replication, ec=ec)
    return measure_write_latency(
        client, "/bench", size, protocol, repeats=repeats, **write_kw
    )


def measure_anatomy(
    protocol: str,
    size: int,
    params: Optional[SimParams] = None,
    replication: Optional[ReplicationSpec] = None,
    ec: Optional[EcSpec] = None,
    **write_kw,
):
    """Phase decomposition of one warmed isolated write.

    Runs a warm-up write plus one measured write on a fresh telemetry-on
    testbed and returns the measured write's
    :class:`~repro.telemetry.anatomy.OpAnatomy` — the per-phase latency
    columns experiments attach next to their headline numbers.
    """
    from ..telemetry.anatomy import decompose
    from ..workloads import payload_bytes

    tb, client = fresh_client(protocol, params, telemetry=True)
    client.create("/bench", size=max(size, 1) * 2, replication=replication, ec=ec)
    data = payload_bytes(size)
    for _ in range(2):  # first write warms structures, second is measured
        out = client.write_sync("/bench", data, protocol=protocol, **write_kw)
        if not out.ok:
            raise RuntimeError(f"write failed: {out.nacks}")
    # let trailing acks / commits close their spans
    tb.drain()
    ops = [op for op in decompose(tb.telemetry) if op.op == "write" and op.ok]
    return ops[-1]


def size_label(nbytes: int) -> str:
    if nbytes >= MiB and nbytes % MiB == 0:
        return f"{nbytes // MiB}MiB"
    if nbytes >= KiB and nbytes % KiB == 0:
        return f"{nbytes // KiB}KiB"
    return f"{nbytes}B"


def render_rows(rows: Sequence[dict], columns: Iterable[str], title: str = "") -> str:
    """Fixed-width text table from dict rows."""
    cols = list(columns)
    widths = {c: max(len(c), *(len(_fmt(r.get(c))) for r in rows)) if rows else len(c) for c in cols}
    out = []
    if title:
        out.append(title)
    out.append("  ".join(c.ljust(widths[c]) for c in cols))
    out.append("  ".join("-" * widths[c] for c in cols))
    for r in rows:
        out.append("  ".join(_fmt(r.get(c)).ljust(widths[c]) for c in cols))
    return "\n".join(out)


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.1f}"
    return str(v)
