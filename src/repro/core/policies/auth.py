"""Protocol policy: client request authentication (§IV).

This is the *plain* offloaded write: the header handler validates the
capability carried in the write request header on the fly, so the client
issues a single RDMA write with no extra validation round trip (Fig. 5
right); payload handlers stream data to the storage target; the
completion handler acks after the data is durable.

The behaviour is exactly the :class:`~repro.core.handlers.DfsPolicy`
default; this subclass pins the name used in handler statistics and
declares the payload path straight-line.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...simnet.packet import Packet
from ..handlers import DfsPolicy
from ..state import RequestEntry

if TYPE_CHECKING:  # pragma: no cover
    from ...pspin.accelerator import HandlerApi
    from ..context import Task

__all__ = ["AuthWritePolicy"]


class AuthWritePolicy(DfsPolicy):
    """Authenticated plain write (k=1, no resiliency)."""

    name = "auth-write"

    def process_pkt(self, api: "HandlerApi", task: "Task", entry: RequestEntry,
                    pkt: Packet) -> None:
        """The default body as a plain function: a payload handler run
        builds no generator."""
        if pkt.payload is not None:
            api.dma_write(entry.scratch["addr"] + pkt.payload_offset, pkt.payload)
