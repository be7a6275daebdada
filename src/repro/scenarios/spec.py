"""Declarative scenario specs: topology × population × faults × protocol.

A :class:`ScenarioSpec` names everything one simulated experiment run
needs — cluster shape, open-loop workload (population, arrival process,
popularity, sizes), data-plane protocol/resiliency, placement pinning,
fault campaign and optional SLO budgets — as one frozen value that can
round-trip through plain dicts and TOML.  The matrix runner
(:mod:`repro.scenarios.matrix`) turns a spec into a row; the
``scenario_matrix`` experiment sweeps a list of them through
:mod:`repro.runner` with the usual caching/parallelism.

TOML format (``load_toml``): one ``[[scenario]]`` array-of-tables per
spec, with nested tables mirroring the dataclass tree::

    [[scenario]]
    name = "hot_shard_demo"
    protocol = "spin"
    pin_top = 64
    pin_node_index = 0
    [scenario.topology]
    n_storage = 8
    [scenario.workload]
    n_users = 50000
    [scenario.workload.arrival]
    kind = "poisson"
    rate_hz = 2.0
    [scenario.workload.popularity]
    n_objects = 4096
    alpha = 1.2
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..dfs.client import PROTOCOLS
from ..faults import check_probability
from ..slo import check_budget_key
from ..workloads.openloop import (
    ArrivalSpec,
    OpenLoopSpec,
    PopularitySpec,
    SizeSpec,
    WorkloadClass,
    _check_int,
    _check_positive,
)

__all__ = [
    "TopologySpec",
    "FaultCampaign",
    "ScenarioSpec",
    "spec_from_dict",
    "spec_to_dict",
    "load_toml",
]


@dataclass(frozen=True)
class TopologySpec:
    """Cluster shape for one scenario."""

    n_storage: int = 8
    n_clients: int = 4          # client *hosts* (endpoints), not users
    storage_mib: int = 64      # per-node capacity
    placement: str = "roundrobin"

    def validate(self) -> None:
        _check_int("n_storage", self.n_storage, 1)
        _check_int("n_clients", self.n_clients, 1)
        _check_int("storage_mib", self.storage_mib, 1)


@dataclass(frozen=True)
class FaultCampaign:
    """Seeded faults active during the scenario (seed comes from the
    scenario seed, so campaigns are deterministic per point)."""

    loss: float = 0.0           # per-packet drop probability
    corrupt: float = 0.0        # per-packet corruption probability
    #: crash this storage node index at ``kill_at_ns`` into the run
    kill_node_index: Optional[int] = None
    kill_at_ns: float = 0.0

    @property
    def active(self) -> bool:
        return self.loss > 0.0 or self.corrupt > 0.0 \
            or self.kill_node_index is not None

    def validate(self) -> None:
        check_probability("scenario.faults.loss", self.loss)
        check_probability("scenario.faults.corrupt", self.corrupt)
        if self.kill_node_index is not None:
            _check_int("kill_node_index", self.kill_node_index, 0)
        _check_positive("kill_at_ns", self.kill_at_ns, zero_ok=True)


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything one scenario run needs, declaratively."""

    name: str
    topology: TopologySpec = field(default_factory=TopologySpec)
    workload: OpenLoopSpec = field(default_factory=OpenLoopSpec)
    protocol: str = "spin"
    replication_k: int = 1      # 1 = no replication
    object_bytes: Optional[int] = None
    #: pin the ``pin_top`` hottest objects onto storage node
    #: ``pin_node_index`` (the hot-shard lever); 0 = no pinning
    pin_top: int = 0
    pin_node_index: int = 0
    faults: FaultCampaign = field(default_factory=FaultCampaign)
    telemetry: bool = False
    #: optional ``"<phase>.<stat>" -> ns`` budgets (needs telemetry)
    slo_budgets: Tuple[Tuple[str, float], ...] = ()

    def validate(self) -> None:
        self.topology.validate()
        self.workload.validate()
        self.faults.validate()
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}; "
                             f"pick one of {PROTOCOLS}")
        _check_int("replication_k", self.replication_k, 1)
        if self.object_bytes is not None:
            _check_int("object_bytes", self.object_bytes, 1)
        _check_int("pin_top", self.pin_top, 0)
        _check_int("pin_node_index", self.pin_node_index, 0)
        if self.pin_top > 0 and not (
            0 <= self.pin_node_index < self.topology.n_storage
        ):
            raise ValueError("pin_node_index outside the topology")
        if self.faults.kill_node_index is not None and not (
            0 <= self.faults.kill_node_index < self.topology.n_storage
        ):
            raise ValueError("kill_node_index outside the topology")
        if not isinstance(self.telemetry, bool):
            raise ValueError(f"telemetry must be true or false, got "
                             f"{self.telemetry!r}")
        if self.slo_budgets and not self.telemetry:
            raise ValueError("slo_budgets need telemetry=True")
        for key, _ns in self.slo_budgets:
            check_budget_key(key)


# --------------------------------------------------------- dict round-trip
def _prune(d: dict) -> dict:
    """Drop None values so dumps stay minimal and TOML-representable."""
    return {k: v for k, v in d.items() if v is not None}


def spec_to_dict(spec: ScenarioSpec) -> dict:
    """A plain nested-dict form of ``spec`` (JSON/TOML friendly)."""
    d = dataclasses.asdict(spec)
    d["topology"] = _prune(d["topology"])
    w = d["workload"]
    w["classes"] = [
        _prune(c) for c in w["classes"]
    ]
    if not w["classes"]:
        del w["classes"]
    d["workload"] = _prune(w)
    d["faults"] = _prune(d["faults"])
    d["slo_budgets"] = {k: v for k, v in spec.slo_budgets}
    if not d["slo_budgets"]:
        del d["slo_budgets"]
    return _prune(d)


def _build(cls, d: dict, table: str):
    """``cls(**d)``, with unknown or missing keys reported as a
    ``ValueError`` naming the key and its TOML table."""
    fields = dataclasses.fields(cls)
    names = {f.name for f in fields}
    for key in d:
        if key not in names:
            raise ValueError(f"unknown field {key!r} in [{table}]")
    for f in fields:
        required = (f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING)
        if required and f.name not in d:
            raise ValueError(f"missing field {f.name!r} in [{table}]")
    return cls(**d)


def _arrival_from(d: Optional[dict], table: str) -> Optional[ArrivalSpec]:
    return None if d is None else _build(ArrivalSpec, d, f"{table}.arrival")


def _size_from(d: Optional[dict], table: str) -> Optional[SizeSpec]:
    return None if d is None else _build(SizeSpec, d, f"{table}.size")


def workload_from_dict(d: dict) -> OpenLoopSpec:
    table = "scenario.workload"
    d = dict(d)
    if "arrival" in d:
        d["arrival"] = _arrival_from(d["arrival"], table)
    if "popularity" in d:
        d["popularity"] = _build(PopularitySpec, d["popularity"],
                                 f"{table}.popularity")
    if "size" in d:
        d["size"] = _size_from(d["size"], table)
    if "classes" in d:
        ctable = f"{table}.classes"
        classes = []
        for c in d["classes"]:
            c = dict(c)
            c["arrival"] = _arrival_from(c.get("arrival"), ctable)
            c["size"] = _size_from(c.get("size"), ctable)
            classes.append(_build(WorkloadClass, c, ctable))
        d["classes"] = tuple(classes)
    return _build(OpenLoopSpec, d, table)


def spec_from_dict(d: dict) -> ScenarioSpec:
    """Rebuild a :class:`ScenarioSpec` from :func:`spec_to_dict` output
    (all fields optional except ``name``; validation runs).  Unknown or
    missing keys raise ``ValueError`` naming the key and its table."""
    d = dict(d)
    if "topology" in d:
        d["topology"] = _build(TopologySpec, d["topology"], "scenario.topology")
    if "workload" in d:
        d["workload"] = workload_from_dict(d["workload"])
    if "faults" in d:
        d["faults"] = _build(FaultCampaign, d["faults"], "scenario.faults")
    if "slo_budgets" in d:
        budgets = d["slo_budgets"]
        if isinstance(budgets, dict):
            d["slo_budgets"] = tuple(sorted(budgets.items()))
        else:
            d["slo_budgets"] = tuple((k, v) for k, v in budgets)
    spec = _build(ScenarioSpec, d, "scenario")
    spec.validate()
    return spec


def load_toml(path: str) -> List[ScenarioSpec]:
    """Load ``[[scenario]]`` tables from a TOML file."""
    import tomllib

    with open(path, "rb") as fh:
        doc = tomllib.load(fh)
    tables = doc.get("scenario")
    if not tables:
        raise ValueError(f"{path}: no [[scenario]] tables")
    if not isinstance(tables, list):
        raise ValueError(
            f"{path}: [scenario] must be an array of tables: write [[scenario]]"
        )
    return [spec_from_dict(t) for t in tables]

