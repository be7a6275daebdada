"""Packets and message segmentation.

A *message* (e.g. one RDMA write) is carried by a stream of packets.
Following the paper (§III-A): the first packet of a message carries the
DFS-specific headers; all packets carry a transport (RDMA) header; the
network guarantees the header packet is delivered first and the
completion packet last (§II-B1, sPIN requirement) — our in-order links
satisfy this trivially.

Payloads are real ``numpy`` ``uint8`` arrays (views into the message
buffer, never copies — see the hpc guide note on views), so every policy
is functionally checkable end to end.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

import numpy as np

__all__ = [
    "Packet",
    "Message",
    "segment_message",
    "TRANSPORT_HEADER_BYTES",
    "reset_id_state",
    "register_id_reset",
]

#: Bytes of transport framing per packet (Ethernet+IP+UDP+BTH-equivalent).
TRANSPORT_HEADER_BYTES = 64

_msg_ids = itertools.count()

#: extra reset hooks registered by other modules holding id state that
#: must restart with every simulation (e.g. rdma.nic's group-request
#: counter) — a registry avoids an import cycle back into those modules
_id_reset_hooks: List[Callable[[], None]] = []


def register_id_reset(hook: Callable[[], None]) -> None:
    """Register ``hook()`` to be invoked by :func:`reset_id_state`."""
    _id_reset_hooks.append(hook)


def reset_id_state() -> None:
    """Restart message id allocation and drop memoized derived ids.

    The id counter and especially the ``(parent, salt)`` derived-id memo
    are module-level, so a long sweep (or a pool worker reusing its
    interpreter across points) otherwise accumulates every entry forever
    and produces ids that depend on what ran before — breaking both
    memory and determinism.  ``build_testbed`` calls this at the start of
    every simulation, and runner workers call it between sweep points.
    """
    global _msg_ids
    _msg_ids = itertools.count()
    _derived_ids.clear()
    for hook in _id_reset_hooks:
        hook()


@dataclass(slots=True)
class Packet:
    """One network packet.

    ``size`` is the wire size in bytes (transport header + DFS headers on
    the first packet + payload).  ``payload`` is a zero-copy view into the
    originating message buffer (may be ``None`` for pure control packets).

    The wire fields ``payload``, ``header_bytes``, ``seq`` and ``nseq``
    are fixed at construction: ``size``, ``payload_bytes``, ``is_header``
    and ``is_completion`` are computed once there and stored, since every
    hop reads them.  A forwarder that needs other headers or another
    payload passes them to :meth:`child` instead of assigning them.
    """

    src: str
    dst: str
    op: str                       # e.g. "write", "read_req", "ack", "rpc"
    msg_id: int
    seq: int                      # packet index within the message
    nseq: int                     # total packets in the message
    payload: Optional[np.ndarray] = None
    headers: dict[str, Any] = field(default_factory=dict)
    header_bytes: int = 0         # DFS-specific header bytes (first pkt only)
    #: byte offset of this packet's payload within the message — carried
    #: on the wire (like RDMA BTH/RETH offsets) so receivers can place
    #: payloads without per-message counters
    payload_offset: int = 0
    # Filled in by the network while in flight:
    enqueue_t: float = 0.0
    #: set by the fault injector: the packet arrives but fails the
    #: receiving NIC's CRC check and is dropped there
    corrupted: bool = False
    #: request trace context (:class:`repro.telemetry.TraceContext`) —
    #: set when telemetry is enabled so spans emitted along the packet's
    #: path (wire, handlers, host commit) link back to the DFS request
    trace: Optional[Any] = None
    # Derived from the wire fields in __post_init__:
    payload_bytes: int = field(init=False)
    size: int = field(init=False)
    is_header: bool = field(init=False)
    is_completion: bool = field(init=False)

    def __post_init__(self) -> None:
        pb = 0 if self.payload is None else self.payload.nbytes
        self.payload_bytes = pb
        self.size = TRANSPORT_HEADER_BYTES + self.header_bytes + pb
        self.is_header = self.seq == 0
        self.is_completion = self.seq == self.nseq - 1

    def child(self, **overrides: Any) -> "Packet":
        """A derived packet (e.g. a forwarded copy) sharing the payload
        view; ``overrides`` replace any constructor field.  The headers
        dict is copied unless ``headers`` is overridden."""
        kw = dict(
            src=self.src,
            dst=self.dst,
            op=self.op,
            msg_id=self.msg_id,
            seq=self.seq,
            nseq=self.nseq,
            payload=self.payload,
            header_bytes=self.header_bytes,
            payload_offset=self.payload_offset,
            trace=self.trace,
        )
        kw.update(overrides)
        if "headers" not in overrides:
            kw["headers"] = dict(self.headers)
        return Packet(**kw)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet {self.op} {self.src}->{self.dst} "
            f"msg={self.msg_id} {self.seq + 1}/{self.nseq} {self.size}B>"
        )


@dataclass(slots=True)
class Message:
    """A logical message prior to segmentation."""

    src: str
    dst: str
    op: str
    data: Optional[np.ndarray] = None
    headers: dict[str, Any] = field(default_factory=dict)
    header_bytes: int = 0
    msg_id: int = field(default_factory=lambda: next(_msg_ids))


def fresh_msg_id() -> int:
    """Allocate a globally unique message id."""
    return next(_msg_ids)


_derived_ids: dict = {}


def derived_msg_id(parent: int, salt: Any) -> int:
    """A msg id derived *stably* from ``(parent, salt)``.

    Forwarding policies (replication fan-out, EC parity streams) need
    fresh msg ids for the streams they originate — but when the parent
    message is retransmitted end-to-end, the re-forwarded streams must
    reuse the SAME ids so receiver-side duplicate suppression works.
    """
    key = (parent, salt)
    mid = _derived_ids.get(key)
    if mid is None:
        mid = _derived_ids[key] = next(_msg_ids)
    return mid


def as_payload(data: Any) -> np.ndarray:
    """Coerce bytes-like input to a ``uint8`` numpy array without copying
    when the input is already a ``uint8`` array."""
    if isinstance(data, np.ndarray):
        if data.dtype != np.uint8:
            raise TypeError(f"payload must be uint8, got {data.dtype}")
        return data
    return np.frombuffer(bytes(data), dtype=np.uint8)


def segment_message(msg: Message, mtu: int) -> list[Packet]:
    """Split a message into MTU-sized packets.

    ``mtu`` bounds ``dfs_headers + payload`` per packet (transport framing
    is extra, as on real RoCE links).  The paper assumes request headers
    always fit in a single packet (§III-A); we enforce that.

    The first packet carries the DFS headers, so its payload share is
    reduced by ``msg.header_bytes``; subsequent packets are pure payload.
    Packets carrying *additional* trailing bytes when the MTU does not
    divide the message (the "outlier" packets of Fig. 16) simply end up
    shorter — exactly like the paper's traffic.
    """
    if msg.header_bytes > mtu:
        raise ValueError(
            f"DFS headers ({msg.header_bytes} B) must fit in one MTU ({mtu} B)"
        )
    data = msg.data
    total = 0 if data is None else int(data.nbytes)

    # Payload budget of the first packet and of the rest.
    first_budget = mtu - msg.header_bytes
    rest_budget = mtu

    # Compute packet count.
    if total <= first_budget:
        nseq = 1
    else:
        nseq = 1 + -(-(total - first_budget) // rest_budget)

    # Trace context travels on *every* packet (like per-packet transport
    # headers) so spans deep in the stack can link to the request even
    # when packets of one message take different paths.
    tctx = msg.headers.get("trace")
    pkts: list[Packet] = []
    off = 0
    for seq in range(nseq):
        budget = first_budget if seq == 0 else rest_budget
        take = min(budget, total - off)
        payload = None
        if data is not None and take > 0:
            payload = data[off : off + take]
        pkts.append(
            Packet(
                src=msg.src,
                dst=msg.dst,
                op=msg.op,
                msg_id=msg.msg_id,
                seq=seq,
                nseq=nseq,
                payload=payload,
                headers=dict(msg.headers) if seq == 0 else {},
                header_bytes=msg.header_bytes if seq == 0 else 0,
                payload_offset=off,
                trace=tctx,
            )
        )
        off += take
    return pkts
