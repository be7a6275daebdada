"""Per-request policy dispatch.

A single persistent execution context serves *all* client requests
(§III-B: handlers "are triggered for all incoming client requests");
which policy applies is decided per request by the *resiliency strategy
option* in the write request header (§VI-B).  This dispatcher reads that
option in the header handler and routes the request to the plain
authenticated write, the replication policy, or the EC data/parity
policies.  It only picks: it stores the sub-policy as
``entry.scratch["policy"]``, and the skeleton's payload and completion
handlers call that effective policy directly.
"""

from __future__ import annotations

from ...simnet.packet import Packet
from ..handlers import DfsPolicy
from ..state import RequestEntry
from .auth import AuthWritePolicy
from .erasure import EcDataPolicy, EcParityPolicy
from .read import ReadPolicy
from .replication import ReplicationPolicy

__all__ = ["DispatchPolicy"]


class DispatchPolicy(DfsPolicy):
    """Routes requests by operation and the WRH resiliency option."""

    name = "dfs"

    def __init__(self, mtu: int = 2048):
        self.auth = AuthWritePolicy()
        self.replication = ReplicationPolicy()
        self.ec_data = EcDataPolicy()
        self.ec_parity = EcParityPolicy()
        self.read = ReadPolicy(mtu=mtu)

    def _pick(self, pkt: Packet) -> DfsPolicy:
        dfs = pkt.headers.get("dfs")
        if dfs is not None and dfs.op == "read":
            return self.read
        wrh = pkt.headers.get("wrh")
        if wrh is None or wrh.resiliency == "none":
            return self.auth
        if wrh.resiliency == "replication":
            return self.replication
        if wrh.ec is not None and wrh.ec.role == "data":
            return self.ec_data
        return self.ec_parity

    # The header cost is the shared validation skeleton; after that the
    # skeleton handlers call the chosen sub-policy (costs and behaviour)
    # through the entry.
    def on_header(self, api, task, entry: RequestEntry, pkt: Packet) -> None:
        sub = self._pick(pkt)
        entry.scratch["policy"] = sub
        sub.on_header(api, task, entry, pkt)
