"""Generic sPIN handlers for offloading DFS tasks (Listing 1).

The paper factors every offloaded policy into the same skeleton:

* the **header handler** calls ``DFS_request_init`` — validate the
  request (NACK on authentication failure), allocate a request-table
  entry, record the accept bit so later packets of a rejected request
  are dropped;
* the **payload handler** checks the accept bit and calls
  ``DFS_request_process_pkt`` — store the payload, forward to replicas,
  encode parities, ... ;
* the **completion handler** checks the accept bit and calls
  ``DFS_request_fini`` — wait for durability, send the client ack, free
  the request entry.

Policies supply the ``DFS_request_*`` bodies through :class:`DfsPolicy`;
the skeleton stays identical across authentication, replication, and
erasure coding — exactly the code-sharing story of Listing 1.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..dfs.capability import Rights
from ..pspin.isa import (
    HandlerCost,
    completion_handler_cost,
    header_handler_cost,
    payload_handler_cost,
)
from ..simnet.packet import Packet
from .context import ExecutionContext, Handler, HandlerSet, Task
from .state import DfsState, RequestEntry

if TYPE_CHECKING:  # pragma: no cover
    from ..pspin.accelerator import HandlerApi

__all__ = ["DfsPolicy", "build_dfs_context", "DROP_COST"]

#: Cost of a payload/completion handler that just checks the accept bit
#: and drops the packet (the ``else`` branches of Listing 1).
DROP_COST = HandlerCost(instructions=12, cpi=1.5)


class DfsPolicy:
    """The ``DFS_request_*`` plug-ins plus their cost annotations.

    The default implementation is the plain authenticated write: validate
    the capability, DMA payloads to the host target, ack after all DMAs
    flushed (§III-B1 persistence).
    """

    name = "auth-write"

    # ------------------------------------------------------------- costs
    def header_cost(self, task: Task, pkt: Packet) -> HandlerCost:
        return header_handler_cost()

    def payload_cost(self, task: Task, entry: RequestEntry, pkt: Packet) -> HandlerCost:
        return payload_handler_cost()

    def completion_cost(self, task: Task, entry: RequestEntry, pkt: Packet) -> HandlerCost:
        return completion_handler_cost()

    # ------------------------------------------------- DFS_request_init
    def validate(self, state: DfsState, pkt: Packet, now_ns: float) -> bool:
        """Authenticate the request (§IV): verify the capability
        signature and that it grants the requested operation/range."""
        dfs = pkt.headers.get("dfs")
        if dfs is None:
            return False
        if state.authority is None:
            return True  # trusted-client threat model (Orion-style)
        if dfs.capability is None:
            return False
        wrh = pkt.headers.get("wrh")
        rrh = pkt.headers.get("rrh")
        if dfs.op == "write" and wrh is not None:
            addr, length = wrh.addr, pkt.headers.get("write_len", 0)
            rights = Rights.WRITE
        elif dfs.op == "read" and rrh is not None:
            addr, length = rrh.addr, rrh.length
            rights = Rights.READ
        else:
            return False
        return state.authority.verify(dfs.capability, rights, addr, length, now_ns)

    def on_header(self, api: "HandlerApi", task: Task, entry: RequestEntry, pkt: Packet) -> None:
        """Record header-only information into the request entry (e.g.
        the coord_array for replication).  Non-blocking."""
        wrh = pkt.headers.get("wrh")
        entry.scratch["addr"] = wrh.addr if wrh is not None else pkt.headers.get("addr", 0)
        entry.scratch["reply_to"] = pkt.headers["dfs"].reply_to or pkt.src

    # ------------------------------------------ DFS_request_process_pkt
    def process_pkt(self, api: "HandlerApi", task: Task, entry: RequestEntry, pkt: Packet):
        """Per-packet action: a generator (may yield sends/waits), or a
        plain function returning None for a body that never waits."""
        if pkt.payload is not None:
            api.dma_write(entry.scratch["addr"] + pkt.payload_offset, pkt.payload)
        return
        yield  # pragma: no cover

    # ------------------------------------------------- DFS_request_fini
    def request_fini(self, api: "HandlerApi", task: Task, entry: RequestEntry, pkt: Packet):
        """Finalize: wait until the data is durable, then ack the client
        — the explicit flush a CPU would do, now on the NIC (§III-B1)."""
        yield api.all_dma_flushed()
        yield api.send_control(
            entry.scratch["reply_to"],
            "ack",
            {
                "ack_for": entry.greq_id,
                "node": api._accel.node_name,
                # keyed by flow (message) id, not greq: one op may send
                # several messages to the same node (striping), each of
                # which earns its own ack; retransmits reuse the msg id
                "dedup": (api._accel.node_name, "dfs", task.flow_id),
            },
        )


# --------------------------------------------------------------- skeleton
#
# The skeleton handlers are plain functions that return what is left to
# run: None when the body is done, or the one generator that still
# waits.  The payload and completion handlers call the request's
# effective policy (the sub-policy a ``DispatchPolicy`` picked at the
# header, stored as ``entry.scratch["policy"]``, else the context's own)
# directly: a payload body runs in one generator frame, or in none.


def _nack(api: "HandlerApi", reply_to: str, greq: int, reason: str):
    yield api.send_control(reply_to, "nack", {"ack_for": greq, "reason": reason})


class _HeaderHandler(Handler):
    name = "header"

    def __init__(self, policy: DfsPolicy):
        self.policy = policy

    def cost(self, task: Task, pkt: Packet) -> HandlerCost:
        return self.policy.header_cost(task, pkt)

    def run(self, api: "HandlerApi", task: Task, pkt: Packet):
        """``DFS_request_init``: an admitted request returns None (no
        generator); a denied one returns the generator sending its NACK."""
        state = task.mem
        dfs = pkt.headers.get("dfs")
        greq = dfs.greq_id if dfs is not None else pkt.headers.get("greq_id", -1)
        accept = self.policy.validate(state, pkt, api.now)
        entry = state.alloc_request(task.flow_id, greq, task.cluster, accept, api.now)
        reply_to = (dfs.reply_to if dfs is not None else None) or pkt.src
        if entry is None:
            # NIC memory exhausted: deny, client retries later (§III-B2).
            api._accel.nacks_sent += 1
            return _nack(api, reply_to, greq, "nic_mem")
        if not accept:
            # DFS_request_init sends NACK if request auth fails.
            state.requests_rejected_auth += 1
            state.post_host_event({"type": "auth_reject", "greq_id": greq, "t": api.now})
            api._accel.nacks_sent += 1
            return _nack(api, reply_to, greq, "auth")
        self.policy.on_header(api, task, entry, pkt)
        return None


class _PayloadHandler(Handler):
    name = "payload"

    def __init__(self, policy: DfsPolicy):
        self.policy = policy

    def cost(self, task: Task, pkt: Packet) -> HandlerCost:
        entry = task.mem.get_request(task.flow_id)
        if entry is None or not entry.accept:
            return DROP_COST
        return entry.scratch.get("policy", self.policy).payload_cost(task, entry, pkt)

    def run(self, api: "HandlerApi", task: Task, pkt: Packet):
        """The effective policy's ``process_pkt``, called directly: None
        for a dropped packet or a straight-line body, else its generator."""
        entry = task.mem.get_request(task.flow_id)
        if entry is None or not entry.accept:
            return None  # packet is dropped
        entry.last_activity_ns = api.now
        return entry.scratch.get("policy", self.policy).process_pkt(api, task, entry, pkt)


class _CompletionHandler(Handler):
    name = "completion"

    def __init__(self, policy: DfsPolicy):
        self.policy = policy

    def cost(self, task: Task, pkt: Packet) -> HandlerCost:
        entry = task.mem.get_request(task.flow_id)
        if entry is None or not entry.accept:
            return DROP_COST
        return entry.scratch.get("policy", self.policy).completion_cost(task, entry, pkt)

    def run(self, api: "HandlerApi", task: Task, pkt: Packet):
        state = task.mem
        entry = state.get_request(task.flow_id)
        if entry is not None and entry.accept:
            yield from entry.scratch.get("policy", self.policy).request_fini(api, task, entry, pkt)
        state.free_request(task.flow_id)


def build_dfs_context(
    name: str,
    policy: DfsPolicy,
    state: DfsState,
    match_ops: tuple[str, ...] = ("write",),
    cleanup: Optional[Handler] = None,
    hpu_quota: Optional[int] = None,
) -> ExecutionContext:
    """Assemble the Listing-1 handler set around a policy."""
    handlers = HandlerSet(
        header=_HeaderHandler(policy),
        payload=_PayloadHandler(policy),
        completion=_CompletionHandler(policy),
        cleanup=cleanup,
    )
    return ExecutionContext(
        name=name, handlers=handlers, state=state, match_ops=match_ops,
        hpu_quota=hpu_quota,
    )
