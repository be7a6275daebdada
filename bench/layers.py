"""Fold a cProfile of one rep into per-layer self time and call counts.

Layers are named after the simulator's modules.  A function defined in
``repro`` belongs to the layer of its module; any other frame (C
builtins, ``heapq``, numpy, ``hashlib``) is charged to the layers of its
callers, split by the time each caller spent in it, using the ``callers``
edges pstats records.  Frames of the benchmark itself and repro modules
outside every layer land in ``other``.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Dict, Optional, Tuple

LAYERS = (
    "simnet.engine",
    "simnet.network",
    "simnet.resources",
    "rdma",
    "pspin",
    "core",
    "hostsim",
    "protocols",
    "dfs",
    "workloads",
    "telemetry",
    "faults",
    "other",
)

#: repro-relative module path (or package dir) -> layer; first match wins
_RULES = (
    ("simnet/engine.py", "simnet.engine"),
    ("simnet/link.py", "simnet.network"),
    ("simnet/network.py", "simnet.network"),
    ("simnet/packet.py", "simnet.network"),
    ("simnet/topology.py", "simnet.network"),
    ("simnet/resources.py", "simnet.resources"),
    ("rdma/", "rdma"),
    ("pspin/", "pspin"),
    ("core/", "core"),
    ("hostsim/", "hostsim"),
    ("protocols/", "protocols"),
    ("dfs/", "dfs"),
    ("workloads/", "workloads"),
    # scenario specs are workload specs; the SLO verdict reads telemetry
    ("scenarios/", "workloads"),
    ("telemetry/", "telemetry"),
    ("slo.py", "telemetry"),
    ("faults.py", "faults"),
)

Func = Tuple[str, int, str]


def _repro_dir() -> str:
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def layer_of(filename: str, repro_dir: str, bench_dir: str) -> Optional[str]:
    """The layer owning a frame, or None for a frame charged to its callers."""
    if filename.startswith(repro_dir):
        rel = filename[len(repro_dir):].replace(os.sep, "/")
        for prefix, layer in _RULES:
            if rel.startswith(prefix):
                return layer
        return "other"
    if filename.startswith(bench_dir):
        return "other"
    return None


def fold_profile(stats: Dict[Func, tuple], issued: int) -> dict:
    """``pstats.Stats(...).stats`` -> per-layer self seconds, shares and
    calls per request, plus the call count of ``Port._start`` (the
    per-packet egress slow path)."""
    repro_dir = _repro_dir()
    bench_dir = os.path.dirname(os.path.abspath(__file__)) + os.sep
    owner = {f: layer_of(f[0], repro_dir, bench_dir) for f in stats}
    memo: Dict[Func, Dict[str, float]] = {}

    def share_of(func: Func, edge: int) -> Dict[str, float]:
        """How ``func``'s time splits over layers: its own layer, or its
        callers' split weighted by edge time (index 2 = self time spent
        on that edge, 3 = cumulative)."""
        layer = owner.get(func)
        if layer is not None:
            return {layer: 1.0}
        key = (func, edge)
        if key in memo:
            return memo[key]
        memo[key] = {"other": 1.0}  # recursion guard
        callers = stats[func][4] if func in stats else {}
        total = sum(e[edge] for e in callers.values())
        if total <= 0.0:
            return memo[key]
        split: Dict[str, float] = defaultdict(float)
        for caller, e in callers.items():
            for layer, w in share_of(caller, 3).items():
                split[layer] += w * e[edge] / total
        memo[key] = dict(split)
        return memo[key]

    self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
    calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
    port_start = 0
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        for layer, w in share_of(func, 2).items():
            self_s[layer] += tt * w
        layer = owner[func]
        if layer is not None and func[0].startswith(repro_dir):
            calls[layer] += nc
        if func[2] == "_start" and func[0].endswith(os.path.join("simnet", "link.py")):
            port_start += nc
    total = sum(self_s.values()) or 1.0
    per_req = 1.0 / max(issued, 1)
    return {
        "self_s": self_s,
        "self_share": {k: v / total for k, v in self_s.items()},
        "calls": calls,
        "calls_per_req": {k: v * per_req for k, v in calls.items()},
        "port_start_calls": port_start,
    }
