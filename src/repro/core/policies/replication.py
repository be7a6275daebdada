"""Data-movement policy: NIC-offloaded replication (§V).

The write request header carries the replication strategy (ring or
pipelined binary tree), the node's virtual rank, and the replica
coordinates (§V-A).  The header handler derives this node's children and
fills the ``coord_array`` in the request entry; every payload handler
then (1) stores the payload locally and (2) forwards a copy to each
child — so the broadcast is *naturally pipelined on network packets*.

The broadcast is **client-driven**: all routing information arrives in
the request itself, so storage nodes keep no CPU-initialized topology
state (§V-A) — the coord_array is initialised when the first packet of
the request arrives and freed with the request entry.

Every replica acks the originating client directly once its local copy
is durable; the client completes the write after collecting k acks.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from ...pspin.isa import HandlerCost, completion_handler_cost, forward_payload_cost
from ...simnet.packet import Packet, derived_msg_id
from ..handlers import DfsPolicy
from ..request import WriteRequestHeader
from ..state import RequestEntry

if TYPE_CHECKING:  # pragma: no cover
    from ...pspin.accelerator import HandlerApi
    from ..context import Task

__all__ = ["ReplicationPolicy"]


class ReplicationPolicy(DfsPolicy):
    """sPIN-Ring / sPIN-PBT replication forwarding."""

    name = "replication"

    # ------------------------------------------------------------- costs
    def payload_cost(self, task, entry: RequestEntry, pkt: Packet) -> HandlerCost:
        return forward_payload_cost(len(entry.scratch.get("coord_array", ())))

    def completion_cost(self, task, entry: RequestEntry, pkt: Packet) -> HandlerCost:
        return completion_handler_cost(len(entry.scratch.get("coord_array", ())))

    # ------------------------------------------------------------ header
    def on_header(self, api: "HandlerApi", task: "Task", entry: RequestEntry, pkt: Packet) -> None:
        super().on_header(api, task, entry, pkt)
        wrh: WriteRequestHeader = pkt.headers["wrh"]
        rp = wrh.replication
        coord_array = []
        if rp is not None:
            for child_rank in rp.children_of(rp.virtual_rank):
                coord = rp.coord_for_rank(child_rank)
                coord_array.append(
                    {
                        "coord": coord,
                        # stable per (parent msg, child): a retransmitted
                        # parent re-forwards the SAME child stream, so
                        # downstream duplicate suppression works
                        "msg_id": derived_msg_id(pkt.msg_id, ("repl", child_rank)),
                        # the forwarded WRH: child's storage address and rank
                        "wrh": WriteRequestHeader(
                            addr=coord.addr,
                            resiliency="replication",
                            replication=replace(rp, virtual_rank=child_rank),
                        ),
                    }
                )
        entry.scratch["coord_array"] = coord_array
        entry.scratch["dfs"] = pkt.headers["dfs"]
        entry.scratch["write_len"] = pkt.headers.get("write_len", 0)

    # ----------------------------------------------------------- payload
    def process_pkt(self, api: "HandlerApi", task: "Task", entry: RequestEntry, pkt: Packet):
        # 1. local store (same as the plain write)
        if pkt.payload is not None:
            api.dma_write(entry.scratch["addr"] + pkt.payload_offset, pkt.payload)
        # 2. forward a copy to each child before the data even reaches
        #    host memory — the latency saving of Fig. 1d.
        sends = []
        for child in entry.scratch["coord_array"]:
            if pkt.is_header:
                headers = {
                    "dfs": entry.scratch["dfs"],
                    "wrh": child["wrh"],
                    "write_len": entry.scratch["write_len"],
                }
                header_bytes = pkt.header_bytes
            else:
                headers = {}
                header_bytes = 0
            fwd = pkt.child(
                src=api._accel.node_name,
                dst=child["coord"].node,
                msg_id=child["msg_id"],
                headers=headers,
                header_bytes=header_bytes,
            )
            sends.append(api.send(fwd))
        # The handler stays occupied until its sends clear the egress
        # port (this is where PBT's IPC collapse comes from).
        for ev in sends:
            yield ev
