"""Workload generators: closed-loop populations and open-loop streams.

``repro.workloads`` grew out of the single-module closed-loop engine
(PR 4) into a package:

* :mod:`repro.workloads.closed` — closed-system load (N clients ×
  bounded outstanding ops, think time) plus the micro-benchmark
  helpers; everything importable from ``repro.workloads`` as before.
* :mod:`repro.workloads.openloop` — open-system load for huge
  populations: aggregated flow generators, Zipf popularity,
  heavy-tailed sizes.
* :mod:`repro.workloads.window` — the measured window and the finish
  step (drain to :meth:`~repro.dfs.cluster.Testbed.idle`, latency and
  phase summaries) both engines share.
* :mod:`repro.workloads.streams` — the counter-based deterministic
  uniform streams both engines share.
"""

from .closed import (
    GoodputResult,
    LoadResult,
    LoadSpec,
    closed_loop_write_load,
    measure_goodput,
    measure_write_latency,
    optimal_chunk_size,
    payload_bytes,
    run_closed_loop,
)
from .openloop import (
    ArrivalSpec,
    OpenLoopResult,
    OpenLoopSpec,
    PopularitySpec,
    SizeSpec,
    WorkloadClass,
    ZipfSampler,
    open_loop_write_load,
    run_open_loop,
    run_open_loop_reference,
    sample_size,
)
from .streams import u01
from .window import WindowStats

__all__ = [
    # closed-loop (historic repro.workloads surface)
    "measure_write_latency",
    "GoodputResult",
    "measure_goodput",
    "LoadSpec",
    "LoadResult",
    "run_closed_loop",
    "closed_loop_write_load",
    "optimal_chunk_size",
    "payload_bytes",
    # open-loop
    "ArrivalSpec",
    "PopularitySpec",
    "SizeSpec",
    "WorkloadClass",
    "OpenLoopSpec",
    "OpenLoopResult",
    "ZipfSampler",
    "sample_size",
    "run_open_loop",
    "run_open_loop_reference",
    "open_loop_write_load",
    # the measured window both engines share
    "WindowStats",
    "u01",
]
