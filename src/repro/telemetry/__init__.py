"""repro.telemetry — end-to-end observability for the simulation stack.

Three pieces (see README "Observability" and docs/API.md):

* **spans** — request-scoped timelines: each DFS write/read opens a root
  span; the trace context rides on packets so NIC handler executions,
  wire serialization, and host commits attach as children;
* **metrics** — counters / time-weighted gauges / histograms registered
  by name, emitted by every layer (links, switch, PsPIN, PCIe, CPU,
  NVMe, protocol drivers);
* **exporters** — Chrome/Perfetto ``trace_event`` JSON
  (:func:`write_chrome_trace`, openable at ``ui.perfetto.dev``) and
  flat JSON/CSV metrics dumps (:func:`dump_metrics`).

Entry points::

    tb = build_testbed(n_storage=4, telemetry=True)   # or:
    tb.sim.telemetry.enabled = True

    ... run a workload ...

    from repro.telemetry import write_chrome_trace, dump_metrics
    write_chrome_trace(tb.sim.telemetry, "out.trace.json")
    dump_metrics(tb.sim.telemetry, "metrics.json", now=tb.sim.now)

or from the shell: ``python -m repro trace --protocol spin --replication 3``.
"""

from .anatomy import (
    PHASES,
    PRIORITY,
    SUM_TOLERANCE_NS,
    AnatomyError,
    CriticalStep,
    OpAnatomy,
    critical_path,
    decompose,
    decompose_trace,
    phase_summary,
)
from .export import dump_metrics, metrics_snapshot, utilization_report
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .perfetto import chrome_trace, trace_events, write_chrome_trace
from .spans import Span, Telemetry, TraceContext

__all__ = [
    "PHASES",
    "PRIORITY",
    "SUM_TOLERANCE_NS",
    "AnatomyError",
    "Counter",
    "CriticalStep",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OpAnatomy",
    "Span",
    "Telemetry",
    "TraceContext",
    "chrome_trace",
    "critical_path",
    "decompose",
    "decompose_trace",
    "dump_metrics",
    "metrics_snapshot",
    "phase_summary",
    "trace_events",
    "utilization_report",
    "write_chrome_trace",
]
