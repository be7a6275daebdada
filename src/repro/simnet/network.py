"""Topology: switches and the network builder.

The paper's SST setup is a flat 400 Gbit/s network with 20 ns link
latency and 2048 B MTU (§III-D).  We model it as a single output-queued
switch in a star topology (the default), with per-port serialization at
line rate and a fixed switch traversal latency.  Multi-switch topologies
can be composed for sensitivity studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..telemetry.metrics import HandleCache
from .engine import Simulator
from .link import Port
from .packet import Packet

__all__ = ["NetConfig", "Switch", "Network"]


@dataclass(frozen=True)
class NetConfig:
    """Network parameters (paper defaults, §III-D)."""

    bandwidth_gbps: float = 400.0
    mtu: int = 2048
    link_latency_ns: float = 20.0
    switch_latency_ns: float = 350.0


class _SwitchPortShim:
    """Receives packets arriving at one switch port and forwards them."""

    def __init__(self, switch: "Switch", name: str) -> None:
        self.switch = switch
        self.name = name
        self.arrive = switch.arrive  # fused delivery (see Port._tx_done)

    def receive(self, pkt: Packet) -> None:
        self.switch.forward(pkt)


class Switch:
    """An output-queued crossbar switch.

    Forwarding charges ``switch_latency_ns`` and then enqueues the packet
    on the destination's output port, where it is serialized at line
    rate.  Output queueing means congestion appears exactly where it does
    in the paper's experiments: on the egress port towards a hot storage
    node.
    """

    def __init__(self, sim: Simulator, cfg: NetConfig, name: str = "switch") -> None:
        self.sim = sim
        self.cfg = cfg
        self.name = name
        self._out_ports: Dict[str, Port] = {}
        #: routing is the base class's local lookup (see ``arrive``)
        self._local_forward = type(self).forward is Switch.forward
        self.rx_packets = 0
        self._handles = HandleCache(
            lambda m: (
                m.counter(f"switch.{name}.rx_packets"),
                m.counter(f"switch.{name}.no_route_drops"),
            )
        )

    def attach(self, endpoint: Any) -> Port:
        """Attach an endpoint; returns the *endpoint's* port (towards us)."""
        node_name = endpoint.name
        if node_name in self._out_ports:
            raise ValueError(f"{node_name} already attached to {self.name}")
        # Switch-side output port towards the endpoint.
        out = Port(self.sim, f"{self.name}->{node_name}", self.cfg.bandwidth_gbps)
        out.connect(endpoint, self.cfg.link_latency_ns)
        self._out_ports[node_name] = out
        # Endpoint-side port towards the switch.
        up = Port(self.sim, f"{node_name}->{self.name}", self.cfg.bandwidth_gbps)
        up.connect(_SwitchPortShim(self, f"{self.name}<-{node_name}"), self.cfg.link_latency_ns)
        return up

    def forward(self, pkt: Packet) -> None:
        self.rx_packets += 1
        out = self._out_ports.get(pkt.dst)
        tel = self.sim.telemetry
        if tel.enabled:
            rx, drops = self._handles.get(tel.metrics)
            rx.inc()
            if out is None:
                drops.inc()
        if out is None:
            raise KeyError(f"{self.name}: no route to {pkt.dst!r}")
        # Fixed traversal latency, then output queueing (closure-free;
        # nothing waits on a hop's tx-done, so the enqueue builds no event).
        self.sim._call_soon1(out.enqueue, pkt, delay=self.cfg.switch_latency_ns)

    def arrive(self, pkt: Packet, t_arr: float) -> None:
        """Fused delivery of an intact packet, at the sender's tx-done.

        The base ``forward`` only counts the packet and schedules the
        output-port enqueue one traversal later.  With a local route and
        telemetry off nothing observes the arrival instant, so the
        enqueue is scheduled now, at ``t_arr + switch_latency_ns``.  A
        hop is :meth:`Port.enqueue`: no tx-done event, since nothing
        waits on one.  Onto an egress busy past that instant it is not
        even an entry: :meth:`Port.defer_enqueue` queues it when the
        port is next read.
        Anything else (a subclass's routing, no route, telemetry
        counters) runs ``forward`` at the arrival instant as before.
        """
        sim = self.sim
        out = self._out_ports.get(pkt.dst) if self._local_forward else None
        if out is None or sim.telemetry.enabled:
            sim._call_at1(self.forward, pkt, t_arr)
            return
        self.rx_packets += 1
        t = t_arr + self.cfg.switch_latency_ns
        # an egress free by then cannot defer; skip the call
        if out._free_t <= t or not out.defer_enqueue(pkt, t):
            sim._call_at1(out.enqueue, pkt, t)

    def out_port(self, node_name: str) -> Port:
        return self._out_ports[node_name]


class Network:
    """A star network: every endpoint hangs off one switch.

    Endpoints must expose ``name`` and ``receive(pkt)``; ``register``
    hands them back their uplink :class:`Port`.
    """

    def __init__(self, sim: Simulator, cfg: Optional[NetConfig] = None) -> None:
        self.sim = sim
        self.cfg = cfg or NetConfig()
        self.switch = Switch(sim, self.cfg)
        self.endpoints: Dict[str, object] = {}

    def register(self, endpoint: Any) -> Port:
        if endpoint.name in self.endpoints:
            raise ValueError(f"duplicate endpoint name {endpoint.name!r}")
        self.endpoints[endpoint.name] = endpoint
        return self.switch.attach(endpoint)
