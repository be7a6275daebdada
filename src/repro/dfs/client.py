"""The DFS client endpoint (Fig. 1a): the library a user links against.

Wraps a client host with the full workflow: authenticate with the
management service, create/lookup objects at the metadata service,
obtain capability tickets, and issue data-plane operations through a
selected write protocol.  ``write()`` returns a simulation event;
``write_sync()`` additionally drives the simulator until completion —
convenient for examples and tests.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.policies.erasure import rs_for
from ..ec.reed_solomon import DecodeError
from ..protocols import (
    WriteContext,
    WriteOutcome,
    cpu_replicated_write,
    hyperloop_write,
    inec_write,
    raw_write,
    rdma_flat_write,
    rpc_rdma_write,
    rpc_write,
    spin_write,
)
from ..simnet.engine import Event
from .capability import Capability, Rights
from .cluster import Testbed
from .layout import EcSpec, FileLayout, ReplicationSpec

__all__ = ["DfsClient", "PROTOCOLS"]

#: protocol name -> requires-testbed flag (driver signature differences)
PROTOCOLS = (
    "spin",
    "raw",
    "rpc",
    "rpc+rdma",
    "cpu",
    "rdma-flat",
    "rdma-hyperloop",
    "inec",
)


class DfsClient:
    """A user-facing DFS endpoint bound to one client host."""

    def __init__(self, testbed: Testbed, client_index: int = 0, principal: str = "user"):
        self.testbed = testbed
        self.node = testbed.clients[client_index]
        self.client_id = testbed.mgmt.authenticate(principal)
        self._tickets: dict[str, Capability] = {}

    # ------------------------------------------------------------ control
    def create(
        self,
        path: str,
        size: int,
        replication: Optional[ReplicationSpec] = None,
        ec: Optional[EcSpec] = None,
    ) -> FileLayout:
        md = self.testbed.metadata
        layout = md.create(path, size, replication=replication, ec=ec)
        self._tickets[path] = md.ticket_for(self.client_id, layout, Rights.RW)
        return layout

    def open(self, path: str) -> FileLayout:
        md = self.testbed.metadata
        layout = md.lookup(path)
        if path not in self._tickets:
            self._tickets[path] = md.ticket_for(self.client_id, layout, Rights.RW)
        return layout

    def ticket(self, path: str) -> Capability:
        """The capability :meth:`create` or :meth:`open` obtained for ``path``."""
        cap = self._tickets.get(path)
        if cap is None:
            raise KeyError(f"client {self.client_id} on {self.node.name} holds no "
                           f"ticket for {path!r}: open or create it first")
        return cap

    def forge_ticket(self, path: str) -> Capability:
        """A tampered capability (for the security tests/examples): same
        descriptor, corrupted signature."""
        cap = self.ticket(path)
        bad_sig = bytes(b ^ 0xFF for b in cap.signature)
        return Capability(
            cap.client_id,
            cap.object_id,
            cap.addr,
            cap.length,
            cap.rights,
            cap.expiry_ns,
            bad_sig,
        )

    # -------------------------------------------------------------- data
    def _ctx(self, path: str, capability: Optional[Capability]) -> WriteContext:
        cap = capability if capability is not None else self._tickets.get(path)
        return WriteContext(client=self.node, client_id=self.client_id, capability=cap)

    def write(
        self,
        path: str,
        data,
        protocol: str = "spin",
        capability: Optional[Capability] = None,
        **kw,
    ) -> Event:
        """Issue a write; returns an event whose value is WriteOutcome."""
        layout = self.testbed.metadata.lookup(path)
        ctx = self._ctx(path, capability)
        if protocol == "spin":
            return spin_write(ctx, layout, data, **kw)
        if protocol == "raw":
            return raw_write(ctx, layout, data)
        if protocol == "rpc":
            return rpc_write(ctx, layout, data, self.testbed)
        if protocol == "rpc+rdma":
            return rpc_rdma_write(ctx, layout, data, self.testbed)
        if protocol == "cpu":
            return cpu_replicated_write(ctx, layout, data, self.testbed, **kw)
        if protocol == "rdma-flat":
            return rdma_flat_write(ctx, layout, data)
        if protocol == "rdma-hyperloop":
            return hyperloop_write(ctx, layout, data, **kw)
        if protocol == "inec":
            return inec_write(ctx, layout, data)
        raise ValueError(f"unknown protocol {protocol!r}; pick one of {PROTOCOLS}")

    def write_sync(self, path: str, data, protocol: str = "spin", **kw) -> WriteOutcome:
        ev = self.write(path, data, protocol=protocol, **kw)
        return self.testbed.run_until(ev)

    #: NACK reasons that mean "try again later" rather than "rejected":
    #: NIC request memory exhausted (§III-B2) or accelerator overloaded
    #: (§III-C).  Auth/integrity rejections are never retried.
    RETRYABLE_NACKS = ("nic_mem", "overload", "log_full")

    def write_with_retry(
        self,
        path: str,
        data,
        protocol: str = "spin",
        max_retries: int = 8,
        backoff_ns: float = 2_000.0,
        **kw,
    ) -> WriteOutcome:
        """Write, retrying transient denials with exponential backoff.

        The paper's §III-B2 contract: "If a client request cannot be
        served because of lack of space, the request is denied, and the
        client will retry later."
        """
        attempt = 0
        while True:
            out = self.write_sync(path, data, protocol=protocol, **kw)
            out.details["attempts"] = attempt + 1
            if out.ok:
                return out
            reasons = {n.get("reason") for n in out.nacks}
            if not reasons & set(self.RETRYABLE_NACKS) or attempt >= max_retries:
                return out
            self.testbed.run(until=self.testbed.sim.now + backoff_ns * (2**attempt))
            attempt += 1

    # ------------------------------------------------------------- reads
    def read(self, path: str, addr: int = 0, length: Optional[int] = None,
             protocol: str = "spin", replica: int = 0) -> Event:
        """Timed data-plane read.  ``spin``: authenticated on-NIC read
        (RRH validated by the header handler); ``raw``: plain RDMA read.
        ``replica`` picks which copy serves the read — replicas are
        byte-identical, so reads fail over to secondaries when the
        primary is down.  The event's value is an OpResult with
        ``.data``."""
        from ..protocols.spin_write import spin_read

        layout = self.testbed.metadata.lookup(path)
        length = layout.size if length is None else length
        if protocol == "spin":
            return spin_read(self._ctx(path, None), layout, addr, length,
                             replica=replica)
        if protocol == "raw":
            ext = layout.extents[replica]
            return self.node.nic.post_read(ext.node, ext.addr + addr, length)
        raise ValueError(f"read supports 'spin' or 'raw', not {protocol!r}")

    def read_sync(self, path: str, addr: int = 0, length: Optional[int] = None,
                  protocol: str = "spin", replica: int = 0):
        return self.testbed.run_until(
            self.read(path, addr, length, protocol, replica=replica)
        )

    def read_back(self, path: str) -> np.ndarray:
        """Functional read of the object's current on-target bytes
        (control-plane convenience; no data-plane timing)."""
        layout = self.testbed.metadata.lookup(path)
        if layout.resiliency == "ec":
            chunks = [
                self.testbed.node(e.node).memory.read(e.addr, e.length)
                for e in layout.extents
            ]
            return np.concatenate(chunks)[: layout.size]
        ext = layout.primary
        return self.testbed.node(ext.node).memory.read(ext.addr, ext.length)[
            : layout.size
        ]

    def recover(self, path: str, failed_nodes: set[str]) -> np.ndarray:
        """Erasure-coded recovery: decode the object from surviving
        chunks (§VI: offline decode by monitoring/recovery services)."""
        layout = self.testbed.metadata.lookup(path)
        if layout.resiliency != "ec":
            raise DecodeError(f"{path!r} is not erasure coded")
        rs = rs_for(layout.ec.k, layout.ec.m)
        available = {}
        for idx, ext in enumerate(list(layout.extents) + list(layout.parity_extents)):
            if ext.node in failed_nodes:
                continue
            available[idx] = self.testbed.node(ext.node).memory.read(ext.addr, ext.length)
        data_chunks = rs.decode(available)
        return rs.join(data_chunks, length=layout.size)
