"""sPIN execution contexts and the handler interface.

An *execution context* (§II-B1, §III-C) bundles: a packet-matching rule,
the handler set (header / payload / completion / cleanup), and a NIC
memory region with the DFS state shared by all handlers the context
spawns.  Contexts are installed into the NIC by the (user-level) DFS
software and are persistent: they match *classes of messages*, not
individual requests, so no per-request installation or connection setup
is needed (§III-B).

A handler has two parts:

* :meth:`Handler.cost` — the compute cost (instructions × CPI) the HPU
  charges before side effects; calibrated in :mod:`repro.pspin.isa`;
* :meth:`Handler.run` — a generator performing the handler's *effects*
  through the :class:`HandlerApi` (DMA writes to host, packet sends,
  acks).  Sends block on NIC egress, which is how stalls show up in the
  measured handler durations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..pspin.isa import HandlerCost, cleanup_handler_cost
from ..simnet.packet import Packet
from .state import DfsState

if TYPE_CHECKING:  # pragma: no cover
    from ..pspin.accelerator import HandlerApi

__all__ = ["Task", "Handler", "HandlerSet", "ExecutionContext"]


@dataclass
class Task:
    """The ``spin_task_t`` of Listing 1: per-message execution handle.

    ``mem`` is ``task->mem``, the context's NIC memory region (a plain
    attribute: every handler run reads it, and a context keeps its
    state for life)."""

    ctx: "ExecutionContext"
    flow_id: int
    cluster: int
    mem: DfsState = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.mem = self.ctx.state


class Handler:
    """Base handler; subclasses implement cost() and run()."""

    name = "handler"

    def cost(self, task: Task, pkt: Packet) -> HandlerCost:
        raise NotImplementedError

    def run(self, api: "HandlerApi", task: Task, pkt: Packet):
        """Generator of simulation events (side effects).  Default: none."""
        return
        yield  # pragma: no cover


class CleanupHandler(Handler):
    """Default cleanup handler: free dangling state, notify the host
    (§VII, client-failure discussion)."""

    name = "cleanup"

    def cost(self, task: Task, pkt: Optional[Packet]) -> HandlerCost:
        return cleanup_handler_cost()

    def run(self, api: "HandlerApi", task: Task, pkt: Optional[Packet]):
        state = task.mem
        entry = state.get_request(task.flow_id)
        greq = entry.greq_id if entry else None
        state.free_request(task.flow_id, cleaned=True)
        state.post_host_event(
            {"type": "write_interrupted", "flow_id": task.flow_id, "greq_id": greq, "t": api.now}
        )
        return
        yield  # pragma: no cover


@dataclass
class HandlerSet:
    """The three sPIN handlers plus the cleanup extension (§VII)."""

    header: Handler
    payload: Handler
    completion: Handler
    cleanup: Optional[Handler] = None

    def __post_init__(self):
        if self.cleanup is None:
            self.cleanup = CleanupHandler()


class ExecutionContext:
    """A persistent, user-level packet-processing context.

    ``hpu_quota`` bounds how many HPUs this context's handlers may
    occupy simultaneously — the fairness/QoS knob the paper's cloud
    discussion calls for (§VII: "it is necessary to guarantee fairness
    and QoS" when NIC compute is shared between tenants).  ``None``
    means unrestricted (single-tenant deployments).
    """

    def __init__(
        self,
        name: str,
        handlers: HandlerSet,
        state: DfsState,
        match_ops: tuple[str, ...] = ("write",),
        hpu_quota: Optional[int] = None,
    ):
        self.name = name
        self.handlers = handlers
        self.state = state
        self.match_ops = match_ops
        if hpu_quota is not None and hpu_quota < 1:
            raise ValueError("hpu_quota must be >= 1 or None")
        self.hpu_quota = hpu_quota
        #: semaphore installed by the accelerator when a quota is set
        self._quota_sem = None

    def matches(self, pkt: Packet) -> bool:
        """Packet-to-context matching (like RDMA QP matching, §II-B1).

        Contexts match on operation class; packets of non-matching ops
        (acks, RPC traffic, reads) take the NIC's default path.
        """
        return pkt.op in self.match_ops
