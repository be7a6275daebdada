"""Networked control plane: metadata/management service nodes (Fig. 1a).

The benchmarks measure pure data-plane latency (the client already
holds the layout), matching the paper's methodology.  This module adds
the rest of Fig. 1a for completeness: a *metadata node* on the network
that serves layout queries, object creation, and ticket issuing over
RPC, so the full workflow — authenticate, query metadata (1→2), then
access storage directly (3) — can be simulated and timed.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..simnet.engine import Event
from .capability import Rights
from .cluster import Testbed
from .layout import EcSpec, ReplicationSpec
from .metadata import MetadataError
from .nodes import RpcCall, StorageNode

__all__ = ["MetadataNode", "install_control_plane", "ControlPlaneClient"]

#: CPU cost of a metadata lookup / allocation on the metadata node
MD_LOOKUP_NS = 400.0
MD_CREATE_NS = 900.0


class MetadataNode(StorageNode):
    """A host running the metadata/management front end.

    Reuses the StorageNode RPC machinery (command queue + CPU cores);
    its handlers call straight into the testbed's control-plane
    services.
    """

    def __init__(self, testbed: Testbed, name: str = "mds"):
        super().__init__(testbed.sim, testbed.net, name, testbed.params)
        self.testbed = testbed
        self.register_rpc("md_lookup", _md_lookup)
        self.register_rpc("md_create", _md_create)
        self.register_rpc("md_ticket", _md_ticket)
        self.register_rpc("md_report_failure", _md_report_failure)


def _md_lookup(call: RpcCall) -> None:
    call.cpu(MD_LOOKUP_NS, _md_lookup_done)


def _md_lookup_done(call: RpcCall) -> None:
    _respond_md(call, lambda md: md.lookup(call.headers["path"]))


def _md_create(call: RpcCall) -> None:
    call.cpu(MD_CREATE_NS, _md_create_done)


def _md_create_done(call: RpcCall) -> None:
    headers = call.headers
    _respond_md(call, lambda md: md.create(
        headers["path"],
        headers["size"],
        replication=headers.get("replication"),
        ec=headers.get("ec"),
    ))


def _md_ticket(call: RpcCall) -> None:
    call.cpu(MD_LOOKUP_NS, _md_ticket_done)


def _md_ticket_done(call: RpcCall) -> None:
    headers = call.headers
    _respond_md(call, lambda md: md.issue_ticket(
        headers["client_id"], headers["path"], headers.get("rights", Rights.RW)
    ))


def _respond_md(call: RpcCall, query: Callable) -> None:
    """Respond with ``query(metadata)``, or with the error it raised."""
    node = call.node
    try:
        result = query(node.testbed.metadata)
    except MetadataError as e:
        node.respond(call.src, call.headers["greq_id"], str(e), error=True)
        return
    node.respond(call.src, call.headers["greq_id"], result)


def _md_report_failure(call: RpcCall) -> None:
    call.cpu(MD_LOOKUP_NS, _md_report_failure_done)


def _md_report_failure_done(call: RpcCall) -> None:
    node = call.node
    node.testbed.mgmt.report_failed(call.headers["node"])
    node.respond(call.src, call.headers["greq_id"], "ok")


def install_control_plane(testbed: Testbed, name: str = "mds") -> MetadataNode:
    """Attach a metadata node to the testbed's network."""
    return MetadataNode(testbed, name=name)


class ControlPlaneClient:
    """Client-side stubs for the metadata RPCs (all timed)."""

    def __init__(self, testbed: Testbed, client_node, mds_name: str = "mds"):
        self.testbed = testbed
        self.node = client_node
        self.mds = mds_name

    def _call(self, rpc: str, **fields) -> Event:
        return self.node.nic.post_rpc(self.mds, {"rpc": rpc, **fields}, header_bytes=64)

    def lookup(self, path: str) -> Event:
        """Steps 1→2 of Fig. 1a: fetch the file layout."""
        return self._call("md_lookup", path=path)

    def create(self, path: str, size: int,
               replication: Optional[ReplicationSpec] = None,
               ec: Optional[EcSpec] = None) -> Event:
        return self._call("md_create", path=path, size=size,
                          replication=replication, ec=ec)

    def ticket(self, path: str, client_id: int, rights: Rights = Rights.RW) -> Event:
        return self._call("md_ticket", path=path, client_id=client_id, rights=rights)

    def report_failure(self, node: str) -> Event:
        """§VII: a client that times out on an ack signals the failure."""
        return self._call("md_report_failure", node=node)
