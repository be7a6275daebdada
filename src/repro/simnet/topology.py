"""Multi-switch topologies.

The paper's SST configuration is a flat network (§III-D), which
:class:`~repro.simnet.network.Network` models as one switch.  Real
deployments hang storage and compute off different leaves; this module
adds a two-tier **leaf–spine** fabric so sensitivity studies can vary
hop counts and uplink oversubscription:

* endpoints attach to leaf switches;
* each leaf connects to every spine with ``uplink_gbps`` links;
* traffic within a leaf switches locally (1 switch hop); cross-leaf
  traffic takes leaf → spine → leaf (3 hops) and shares the uplinks —
  an oversubscribed fabric throttles cross-leaf incast exactly like the
  real thing.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .engine import Simulator
from .link import Port
from .network import NetConfig, Switch
from .packet import Packet

__all__ = ["LeafSpineNetwork"]


class _LeafSwitch(Switch):
    """A leaf: local endpoints plus uplinks to every spine."""

    def __init__(self, sim: Simulator, cfg: NetConfig, name: str, fabric: "LeafSpineNetwork") -> None:
        super().__init__(sim, cfg, name=name)
        self.fabric = fabric
        self.uplinks: List[Port] = []
        self._rr = 0

    def forward(self, pkt: Packet) -> None:
        self.rx_packets += 1
        if pkt.dst in self._out_ports:
            out = self._out_ports[pkt.dst]
            self.sim._call_soon1(out.enqueue, pkt, delay=self.cfg.switch_latency_ns)
            return
        # cross-leaf: ECMP round robin over the spine uplinks
        if not self.uplinks:
            raise KeyError(f"{self.name}: no route to {pkt.dst!r}")
        up = self.uplinks[self._rr % len(self.uplinks)]
        self._rr += 1
        self.sim._call_soon1(up.enqueue, pkt, delay=self.cfg.switch_latency_ns)


class _SpineSwitch(Switch):
    """A spine: routes down to the leaf owning the destination."""

    def __init__(self, sim: Simulator, cfg: NetConfig, name: str, fabric: "LeafSpineNetwork") -> None:
        super().__init__(sim, cfg, name=name)
        self.fabric = fabric
        self.downlinks: Dict[str, Port] = {}  # leaf name -> port

    def forward(self, pkt: Packet) -> None:
        self.rx_packets += 1
        leaf = self.fabric.leaf_of.get(pkt.dst)
        if leaf is None:
            raise KeyError(f"{self.name}: no route to {pkt.dst!r}")
        down = self.downlinks[leaf]
        self.sim._call_soon1(down.enqueue, pkt, delay=self.cfg.switch_latency_ns)


class _Shim:
    def __init__(self, target: Any, name: str) -> None:
        self._t = target
        self.name = name

    def receive(self, pkt: Packet) -> None:
        self._t.forward(pkt)


class LeafSpineNetwork:
    """A two-tier fabric with configurable uplink oversubscription."""

    def __init__(
        self,
        sim: Simulator,
        cfg: Optional[NetConfig] = None,
        n_leaves: int = 2,
        n_spines: int = 1,
        uplink_gbps: Optional[float] = None,
    ) -> None:
        self.sim = sim
        self.cfg = cfg or NetConfig()
        self.uplink_gbps = uplink_gbps or self.cfg.bandwidth_gbps
        self.leaves = [
            _LeafSwitch(sim, self.cfg, f"leaf{i}", self) for i in range(n_leaves)
        ]
        self.spines = [
            _SpineSwitch(sim, self.cfg, f"spine{j}", self) for j in range(n_spines)
        ]
        self.leaf_of: Dict[str, str] = {}
        self.endpoints: Dict[str, object] = {}
        # wire every leaf to every spine, both directions
        for leaf in self.leaves:
            for spine in self.spines:
                up = Port(sim, f"{leaf.name}->{spine.name}", self.uplink_gbps)
                up.connect(_Shim(spine, spine.name), self.cfg.link_latency_ns)
                leaf.uplinks.append(up)
                down = Port(sim, f"{spine.name}->{leaf.name}", self.uplink_gbps)
                down.connect(_Shim(leaf, leaf.name), self.cfg.link_latency_ns)
                spine.downlinks[leaf.name] = down

    def register(self, endpoint: Any, leaf: int = 0) -> Port:
        """Attach an endpoint to a given leaf; returns its uplink port."""
        if endpoint.name in self.endpoints:
            raise ValueError(f"duplicate endpoint name {endpoint.name!r}")
        self.endpoints[endpoint.name] = endpoint
        self.leaf_of[endpoint.name] = self.leaves[leaf].name
        return self.leaves[leaf].attach(endpoint)

    @property
    def switch(self) -> Switch:  # Network-compat shim for code that pokes .switch
        return self.leaves[0]
