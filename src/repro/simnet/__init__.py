"""Discrete-event, packet-level network simulation substrate.

Replaces the paper's SST-based multi-node simulation (DESIGN.md §2).
"""

from .engine import (
    AllOf,
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .link import Port, gbps_to_ns_per_byte
from .network import NetConfig, Network, Switch
from .packet import (
    TRANSPORT_HEADER_BYTES,
    Message,
    Packet,
    as_payload,
    fresh_msg_id,
    segment_message,
)
from .resources import Container, Request, Resource, Store
from .topology import LeafSpineNetwork
from .trace import summarize

__all__ = [
    "AllOf",
    "Container",
    "Event",
    "LeafSpineNetwork",
    "Message",
    "NetConfig",
    "Network",
    "Packet",
    "Port",
    "Process",
    "Request",
    "Resource",
    "SimulationError",
    "Simulator",
    "Store",
    "Switch",
    "Timeout",
    "TRANSPORT_HEADER_BYTES",
    "as_payload",
    "fresh_msg_id",
    "gbps_to_ns_per_byte",
    "segment_message",
    "summarize",
]
