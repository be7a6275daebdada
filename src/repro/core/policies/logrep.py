"""Extension: NIC-offloaded replicated log append (§VII, related work).

The paper argues (§VII "How to offload complex protocols?") that
consensus-style building blocks accelerated by extending RDMA — DARE's
replicated log [48], Tailwind's log replication [60] — map naturally
onto sPIN's RDMA+X model.  This policy implements the core primitive:

* clients issue ``log_append`` writes *without* choosing an offset;
* the primary's header handler performs an **atomic fetch-and-add** on
  the log tail held in NIC memory — the "X" plain RDMA cannot express —
  reserving a region and rejecting appends that would overflow;
* payload handlers place the record at the reserved offset and forward
  the packets along the replica ring *with the assigned offset*, so all
  replicas serialize appends identically without any CPU involvement;
* the completion handler acks the client with the assigned offset once
  the record is durable.

Concurrent appends from many clients therefore get disjoint,
totally-ordered log regions, replicated k ways, at NIC speed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from ...dfs.capability import Rights
from ...pspin.isa import HandlerCost, completion_handler_cost, forward_payload_cost
from ...simnet.packet import Packet, derived_msg_id
from ..handlers import DfsPolicy
from ..state import DfsState, RequestEntry

if TYPE_CHECKING:  # pragma: no cover
    from ...pspin.accelerator import HandlerApi
    from ..context import Task

__all__ = ["LogAppendPolicy", "LogDescriptor"]


class LogDescriptor:
    """NIC-resident log metadata (tail pointer + bounds)."""

    __slots__ = ("log_id", "base_addr", "capacity", "tail", "appends", "rejected", "reserved")

    def __init__(self, log_id: int, base_addr: int, capacity: int):
        self.log_id = log_id
        self.base_addr = base_addr
        self.capacity = capacity
        self.tail = 0
        self.appends = 0
        self.rejected = 0
        #: greq -> assigned offset: a retransmitted append must land in
        #: its ORIGINAL slot, not consume fresh log space
        self.reserved: Dict[int, int] = {}

    def reserve(self, nbytes: int, greq: int | None = None) -> int | None:
        """Atomic fetch-and-add of the tail (the HH runs this without
        yielding, modelling the NIC's atomic).  Idempotent per ``greq``."""
        if greq is not None and greq in self.reserved:
            return self.reserved[greq]
        if self.tail + nbytes > self.capacity:
            self.rejected += 1
            return None
        off = self.tail
        self.tail += nbytes
        self.appends += 1
        if greq is not None:
            self.reserved[greq] = off
        return off


class LogAppendPolicy(DfsPolicy):
    """Offloaded ordered append with ring replication."""

    name = "log-append"

    def __init__(self):
        self.logs: Dict[int, LogDescriptor] = {}

    def register_log(self, log_id: int, base_addr: int, capacity: int) -> LogDescriptor:
        """Install a log's descriptor into NIC state (control plane)."""
        desc = LogDescriptor(log_id, base_addr, capacity)
        self.logs[log_id] = desc
        return desc

    # ------------------------------------------------------------- costs
    def header_cost(self, task, pkt) -> HandlerCost:
        # validation + the tail fetch-and-add
        return HandlerCost(instructions=135, cpi=1.758)

    def payload_cost(self, task, entry: RequestEntry, pkt: Packet) -> HandlerCost:
        return forward_payload_cost(1 if entry.scratch.get("next") else 0)

    def completion_cost(self, task, entry, pkt) -> HandlerCost:
        return completion_handler_cost()

    # ------------------------------------------------------------ header
    def validate(self, state: DfsState, pkt: Packet, now_ns: float) -> bool:
        desc = self.logs.get(pkt.headers.get("log_id"))
        if desc is None:
            return False
        if state.authority is None:
            return True
        dfs = pkt.headers.get("dfs")
        if dfs is None or dfs.capability is None:
            return False
        return state.authority.verify(
            dfs.capability, Rights.WRITE, desc.base_addr, pkt.headers["write_len"], now_ns
        )

    def on_header(self, api: "HandlerApi", task: "Task", entry: RequestEntry, pkt: Packet) -> None:
        desc = self.logs[pkt.headers["log_id"]]
        nbytes = pkt.headers["write_len"]
        assigned = pkt.headers.get("assigned_offset")
        if assigned is None:
            # primary: reserve atomically
            assigned = desc.reserve(nbytes, greq=entry.greq_id)
            if assigned is None:
                # log full: deny like any resource exhaustion (§III-B2)
                entry.accept = False
                entry.scratch["overflow"] = True
                reply = pkt.headers["dfs"].reply_to or pkt.src
                api._accel.nacks_sent += 1
                api.send_control(
                    reply, "nack", {"ack_for": entry.greq_id, "reason": "log_full"}
                )
                return
        else:
            # replica: mirror the primary's assignment so all copies
            # serialize identically (once per request, even retransmitted)
            if entry.greq_id not in desc.reserved:
                desc.tail = max(desc.tail, assigned + nbytes)
                desc.appends += 1
                desc.reserved[entry.greq_id] = assigned
        entry.scratch["offset"] = assigned
        entry.scratch["base"] = desc.base_addr
        entry.scratch["reply_to"] = pkt.headers["dfs"].reply_to or pkt.src
        entry.scratch["dfs"] = pkt.headers["dfs"]
        entry.scratch["hdr"] = dict(pkt.headers)
        ring = pkt.headers.get("ring", ())
        if ring:
            nxt, rest = ring[0], tuple(ring[1:])
            entry.scratch["next"] = nxt
            entry.scratch["rest"] = rest
            # stable id so a re-forwarded ring stream is dedup-able
            entry.scratch["fwd_msg"] = derived_msg_id(pkt.msg_id, ("log",))
        else:
            entry.scratch["next"] = None

    # ----------------------------------------------------------- payload
    def process_pkt(self, api: "HandlerApi", task: "Task", entry: RequestEntry, pkt: Packet):
        if pkt.payload is not None:
            addr = entry.scratch["base"] + entry.scratch["offset"] + pkt.payload_offset
            api.dma_write(addr, pkt.payload)
        nxt = entry.scratch.get("next")
        if nxt is not None:
            if pkt.is_header:
                hdr = dict(entry.scratch["hdr"])
                hdr["assigned_offset"] = entry.scratch["offset"]
                hdr["ring"] = entry.scratch["rest"]
                header_bytes = pkt.header_bytes
            else:
                hdr = {}
                header_bytes = 0
            fwd = pkt.child(
                src=api._accel.node_name,
                dst=nxt["node"],
                msg_id=entry.scratch["fwd_msg"],
                headers=hdr,
                header_bytes=header_bytes,
            )
            yield api.send(fwd)

    # -------------------------------------------------------- completion
    def request_fini(self, api: "HandlerApi", task: "Task", entry: RequestEntry, pkt: Packet):
        yield api.all_dma_flushed()
        yield api.send_control(
            entry.scratch["reply_to"],
            "ack",
            {
                "ack_for": entry.greq_id,
                "node": api._accel.node_name,
                "offset": entry.scratch["offset"],
                "dedup": (api._accel.node_name, "log", entry.greq_id),
            },
        )
