"""The RDMA NIC model: one-sided writes/reads, RPC delivery, acks.

This is the baseline transport every protocol builds on (Fig. 1b/1c).
A :class:`RdmaNic` terminates the node's network port and implements:

* **initiator side** — ``post_write`` / ``post_read`` / ``post_rpc``:
  segment a message, charge the client posting overhead (WQE build +
  doorbell), stream packets, and complete when the expected number of
  acknowledgments (or the read/RPC response) arrives;
* **target side** — dispatch received packets: one-sided writes DMA
  payloads into the host memory target (acking on the last packet,
  *without* waiting for the PCIe flush — the RDMA persistence gap of
  §III-B1), read requests stream data back, RPC sends are DMA'd up and
  handed to the host's command queue.

A :class:`~repro.pspin.accelerator.PsPinAccelerator` can be attached, in
which case matching packets are diverted into it *before* the host path
(Fig. 1d); everything else behaves like a plain RDMA NIC.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from ..params import SimParams
from ..simnet.engine import Event, Simulator
from ..simnet.link import Port
from ..simnet.packet import (
    Message,
    Packet,
    as_payload,
    fresh_msg_id,
    register_id_reset,
    segment_message,
)
from ..telemetry.metrics import HandleCache

__all__ = ["RdmaNic", "OpResult", "PendingOp"]

_greq_ids = itertools.count(1)
_INF = float("inf")


def fresh_greq_id() -> int:
    return next(_greq_ids)


def _reset_greq_ids() -> None:
    global _greq_ids
    _greq_ids = itertools.count(1)


# greq ids restart with every simulation (see packet.reset_id_state)
register_id_reset(_reset_greq_ids)


@dataclass
class OpResult:
    """Outcome of a posted operation."""

    ok: bool
    t_start: float
    t_end: float
    greq_id: int
    nacks: list = field(default_factory=list)
    data: Optional[np.ndarray] = None
    #: merged headers of received acks (e.g. the assigned log offset)
    info: dict = field(default_factory=dict)  # for reads / RPC responses

    @property
    def latency_ns(self) -> float:
        return self.t_end - self.t_start


@dataclass
class PendingOp:
    event: Event
    t_start: float
    greq_id: int
    expected_acks: int = 1
    acks: int = 0
    nacks: list = field(default_factory=list)
    data: Optional[np.ndarray] = None
    info: dict = field(default_factory=dict)
    # -- reliability layer (used when FaultParams.retransmit is on) ----
    #: wire messages of this op, kept for end-to-end retransmission
    messages: list = field(default_factory=list)
    #: transmission attempts so far (1 = the original send)
    attempts: int = 1
    #: dedup keys of acks already counted (duplicate acks are dropped)
    ack_keys: set = field(default_factory=set)
    #: the op's retransmission timer (an ``_RtoTimer``); popping the op
    #: from the NIC's pending table disarms it
    watchdog: Optional[object] = None
    #: last time an ack/progress for this op was observed
    last_progress: float = 0.0
    #: request trace context (for retransmit-backoff telemetry spans)
    trace: Optional[object] = None


class _RtoTimer:
    """Retransmission timer of one pending op: heap callbacks in place of
    a watchdog process.  ``start`` runs where the process's first step
    did and sleeps one interval; each ``fire`` lets the NIC check the op
    (``RdmaNic._rto_expired``), which re-arms it.  ``strand`` names the
    chain for simsan, as the process name did."""

    __slots__ = ("nic", "gid", "rto")

    def __init__(self, nic: "RdmaNic", gid: int, rto: float) -> None:
        self.nic = nic
        self.gid = gid
        #: current interval (backs off after each retransmission)
        self.rto = rto

    @property
    def strand(self) -> str:
        return f"{self.nic.name}.rto({self.gid})"

    def start(self, _) -> None:
        self.nic.sim._call_soon1(self.fire, None, delay=self.rto)

    def fire(self, _) -> None:
        self.nic._rto_expired(self)


class _Tx:
    """One message on its way out of the NIC, as heap callbacks.

    ``start`` runs at the message's submit instant (see
    ``RdmaNic._spawn_tx``) and streams the packets: each waits for the
    previous one's tx-done event.  At the end
    it writes the ``post``/``tx`` spans.  ``serve_read`` is the target
    side of a one-sided read: the PCIe read, the tx pipeline latency,
    then the same stream.  ``strand`` (``<nic>.tx``, ``<nic>.rtx`` for
    retransmissions, ``<nic>.read``) names the chain for simsan.
    """

    __slots__ = ("nic", "msg", "t0", "t_submit", "pkts", "i", "strand")

    def __init__(self, nic: "RdmaNic", msg: Optional[Message], t0: Optional[float],
                 strand: str) -> None:
        self.nic = nic
        self.msg = msg
        #: when the message was posted (``None`` for a read response,
        #: which writes no spans)
        self.t0 = t0
        self.t_submit = 0.0
        self.i = 0
        self.strand = strand

    def start(self, _) -> None:
        nic = self.nic
        self.t_submit = nic.sim.now
        nic.tx_messages += 1
        self.stream(None)

    def stream(self, _) -> None:
        """Put the packets on the wire back to back."""
        self.pkts = segment_message(self.msg, self.nic.params.net.mtu)
        self._next(None)

    def _next(self, _) -> None:
        i = self.i
        pkts = self.pkts
        if i < len(pkts):
            self.i = i + 1
            self.nic.port.send(pkts[i]).add_callback(self._next)
        elif self.t0 is not None:
            tel = self.nic.sim.telemetry
            if tel.enabled:
                self._spans(tel)

    def _spans(self, tel) -> None:
        nic = self.nic
        msg = self.msg
        nbytes = msg.data.nbytes if msg.data is not None else 0
        trace = msg.headers.get("trace")
        # Submission overhead (WQE build + doorbell + tx pipeline) is its
        # own anatomy phase; the enclosing tx span is tagged host_queue,
        # so whatever the wire spans don't carve out of it (egress-queue
        # wait, inter-packet gaps) is attributed to host-side queueing.
        tel.span(
            f"post {msg.op}",
            pid="net",
            tid=nic.name,
            t0=self.t0,
            t1=self.t_submit,
            cat="net",
            trace=trace,
            args={"dst": msg.dst},
            phase="submit",
        )
        tel.span(
            f"tx {msg.op} {nbytes}B",
            pid="net",
            tid=nic.name,
            t0=self.t0,
            t1=nic.sim.now,
            cat="net",
            trace=trace,
            args={"bytes": nbytes, "packets": len(self.pkts), "dst": msg.dst},
            phase="host_queue",
        )
        h = nic._handles.get(tel.metrics)
        h[0].inc()
        h[1].inc(nbytes)

    # -- target side of a one-sided read --------------------------------
    def serve_read(self, req: Packet) -> None:
        """DMA the requested bytes from host memory into the NIC (a PCIe
        read), then stream them back after the tx pipeline latency."""
        pcie = self.nic.host.pcie
        self.msg = req  # the request, until ``_read_loaded`` builds the reply
        if pcie is not None:
            pcie.dma(req.headers["length"], trace=req.trace).add_callback(self._read_loaded)
        else:
            self._read_loaded(None)

    def _read_loaded(self, _) -> None:
        nic = self.nic
        req = self.msg
        h = req.headers
        addr, length = h["addr"], h["length"]
        memory = nic.host.memory
        data = (
            memory.read(addr, length)
            if memory is not None
            else np.zeros(length, dtype=np.uint8)
        )
        self.msg = Message(
            src=nic.name,
            dst=h.get("reply_to", req.src),
            op="read_resp",
            data=data,
            headers={"greq_id": h["greq_id"], "offset": 0, "trace": req.trace},
            header_bytes=16,
        )
        nic.sim._call_soon1(self.stream, None, delay=nic.params.nic_tx_ns)


class RdmaNic:
    """One node's NIC.  ``host`` duck-type:

    * ``host.memory`` — :class:`~repro.hostsim.memory.MemoryTarget` or None
    * ``host.pcie``   — :class:`~repro.hostsim.pcie.Pcie` or None
    * ``host.on_rpc(headers, payload, src)`` — optional RPC delivery hook
    """

    def __init__(self, sim: Simulator, params: SimParams, host, name: str):
        self.sim = sim
        self.params = params
        self.host = host
        self.name = name
        # process/event names formatted once, not per message (hot path)
        self._pname_tx = f"{name}.tx"
        self._pname_rtx = f"{name}.rtx"
        self._pname_read = f"{name}.read"
        self._handles = HandleCache(
            lambda m: (
                m.counter(f"nic.{name}.tx_messages"),
                m.counter(f"nic.{name}.tx_bytes"),
                m.counter(f"nic.{name}.retransmits"),
                m.counter(f"nic.{name}.timeouts"),
            )
        )
        self.port: Optional[Port] = None  # wired by the network builder
        self.accelerator = None  # optional PsPinAccelerator
        self._pending: Dict[int, PendingOp] = {}
        #: per-incoming-message receive state (DMA offsets, reply routes)
        self._rx_writes: Dict[object, object] = {}
        #: hooks for protocol extensions (e.g. HyperLoop preposted WQEs)
        self.rx_hooks: list[Callable[[Packet], bool]] = []
        #: writes already committed + acked: msg_id -> (reply_to, greq);
        #: bounded memo so retransmitted completions re-ack, never re-DMA
        self._done_writes: Dict[int, tuple] = {}
        # stats
        self.rx_packets = 0
        self.tx_messages = 0
        self.acks_sent = 0
        self.retransmits = 0
        self.timeouts = 0
        self.dup_acks = 0
        self.dup_completions = 0
        self.incomplete_drops = 0
        self.rx_dropped = 0
        #: when the node crashed (``crash``): packets arriving at or after
        #: it are dropped at every delivery entry
        self.crashed_at = _INF
        san = sim.sanitizer
        if san is not None:
            san.adopt("nic", self)

    def _track_pending(self, gid: int, label: str) -> None:
        """Sanitizer hook: record who posted this logical request (the
        acquisition backtrace makes a leaked greq report actionable)."""
        san = self.sim.sanitizer
        if san is not None:
            san.claim("greq", (self.name, gid), label)

    # ------------------------------------------------------------ wiring
    def attach_port(self, port: Port) -> None:
        self.port = port

    def attach_accelerator(self, accel) -> None:
        self.accelerator = accel

    def crash(self) -> None:
        """The node dies now: it stops taking packets off the wire."""
        self.crashed_at = min(self.crashed_at, self.sim.now)

    # =================================================== initiator side
    def post_write(
        self,
        dst: str,
        data,
        headers: dict,
        header_bytes: int = 8,
        expected_acks: int = 1,
        greq_id: Optional[int] = None,
        op: str = "write",
        post_overhead: bool = True,
    ) -> Event:
        """Post a (one-sided) write; the event's value is an OpResult.

        ``headers`` must let the target place the data: either a raw
        ``{"addr": n}`` or DFS headers (``dfs``/``wrh`` objects).
        """
        gid = fresh_greq_id() if greq_id is None else greq_id
        headers = dict(headers)
        headers.setdefault("greq_id", gid)
        msg = Message(
            src=self.name,
            dst=dst,
            op=op,
            data=as_payload(data) if data is not None else None,
            headers=headers,
            header_bytes=header_bytes,
        )
        existing = self._pending.get(gid)
        if existing is not None:
            # Part of a multi-message transaction opened via
            # open_transaction(): reuse its pending op and event.
            done = existing.event
        else:
            done = self.sim.event(name="write")
            self._pending[gid] = PendingOp(
                event=done, t_start=self.sim.now, greq_id=gid, expected_acks=expected_acks
            )
            self._track_pending(gid, op)
        self._spawn_tx(msg, post_overhead, self._pname_tx)
        self._track_for_retry(gid, msg)
        return done

    def post_read(self, dst: str, addr: int, length: int, headers: Optional[dict] = None) -> Event:
        """One-sided read: request goes out, target NIC streams data back."""
        gid = fresh_greq_id()
        h = dict(headers or {})
        h.update({"greq_id": gid, "addr": addr, "length": length, "reply_to": self.name})
        msg = Message(src=self.name, dst=dst, op="read_req", headers=h, header_bytes=24)
        done = self.sim.event(name="read")
        op = PendingOp(event=done, t_start=self.sim.now, greq_id=gid)
        op.data = np.zeros(length, dtype=np.uint8)
        op.acks = 0  # bytes received accumulate in op
        self._pending[gid] = op
        self._track_pending(gid, "read")
        self._spawn_tx(msg, True, self._pname_tx)
        self._track_for_retry(gid, msg)
        return done

    def post_rpc(
        self,
        dst: str,
        headers: dict,
        data=None,
        header_bytes: int = 32,
        post_overhead: bool = True,
    ) -> Event:
        """Two-sided send: delivered to the target host's RPC queue; the
        event completes when an ``rpc_resp`` for it returns."""
        gid = fresh_greq_id()
        h = dict(headers)
        h.update({"greq_id": gid, "reply_to": self.name})
        msg = Message(
            src=self.name,
            dst=dst,
            op="rpc",
            data=as_payload(data) if data is not None else None,
            headers=h,
            header_bytes=header_bytes,
        )
        done = self.sim.event(name="rpc")
        self._pending[gid] = PendingOp(event=done, t_start=self.sim.now, greq_id=gid)
        self._track_pending(gid, "rpc")
        self._spawn_tx(msg, post_overhead, self._pname_tx)
        self._track_for_retry(gid, msg)
        return done

    def open_transaction(self, expected_acks: int, greq_id: Optional[int] = None) -> tuple[int, Event]:
        """Create a pending operation that completes after
        ``expected_acks`` acknowledgments referencing ``greq_id`` arrive.

        Used by multi-message operations (chunked CPU replication,
        erasure-coded block writes) where several wire messages share one
        logical request id.
        """
        gid = fresh_greq_id() if greq_id is None else greq_id
        done = self.sim.event(name="txn")
        self._pending[gid] = PendingOp(
            event=done, t_start=self.sim.now, greq_id=gid, expected_acks=expected_acks
        )
        self._track_pending(gid, "txn")
        return gid, done

    def send_message(
        self,
        dst: str,
        op: str,
        headers: dict,
        data=None,
        header_bytes: int = 8,
        post_overhead: bool = True,
    ) -> None:
        """Fire-and-forget message send (no pending op is created)."""
        msg = Message(
            src=self.name,
            dst=dst,
            op=op,
            data=as_payload(data) if data is not None else None,
            headers=dict(headers),
            header_bytes=header_bytes,
        )
        self._spawn_tx(msg, post_overhead, self._pname_tx)
        gid = self._greq_of(msg.headers)
        if gid is not None and gid in self._pending:
            # Part of a tracked transaction (open_transaction): the
            # message joins the op's retransmission set.
            self._track_for_retry(gid, msg)

    def send_raw(self, pkt: Packet) -> Event:
        """NIC-level packet emission (used by the accelerator and by
        protocol machinery like HyperLoop's triggered WQEs)."""
        assert self.port is not None, f"{self.name} not attached to a network"
        return self.port.send(pkt)

    def send_control(self, dst: str, op: str, headers: dict, trace=None) -> Event:
        pkt = Packet(
            src=self.name,
            dst=dst,
            op=op,
            msg_id=fresh_msg_id(),
            seq=0,
            nseq=1,
            headers=headers,
            header_bytes=16,
            trace=trace,
        )
        return self.send_raw(pkt)

    # ------------------------------------------------ reliability layer
    @staticmethod
    def _greq_of(headers: dict) -> Optional[int]:
        """Best-effort extraction of the logical request id a message
        belongs to (plain, DFS, or INEC header shapes)."""
        dfs = headers.get("dfs")
        if dfs is not None:
            return getattr(dfs, "greq_id", None)
        gid = headers.get("greq_id")
        if gid is not None:
            return gid
        inec = headers.get("inec")
        if isinstance(inec, dict):
            return inec.get("greq_id")
        return None

    def _track_for_retry(self, gid: int, msg: Message) -> None:
        """Register ``msg`` for end-to-end retransmission of op ``gid``
        and arm the per-op watchdog (when the reliability layer is on).

        Retransmitting the stored :class:`Message` re-segments it with
        the SAME msg_id, so targets can suppress duplicates.
        """
        fp = self.params.faults
        # arm on ``retransmit`` alone: a node crash produces no wire
        # faults (``active`` stays False) yet still needs the watchdog
        # to turn a silently dropped op into a bounded-time nack
        if not fp.retransmit:
            return
        pending = self._pending.get(gid)
        if pending is None or pending.event.triggered:
            return
        pending.messages.append(msg)
        pending.last_progress = self.sim.now
        if pending.trace is None:
            pending.trace = msg.headers.get("trace")
        if pending.watchdog is None:
            timer = pending.watchdog = _RtoTimer(self, gid, fp.rto_ns)
            self.sim._call_soon1(timer.start, None)

    def _rto_expired(self, timer: "_RtoTimer") -> None:
        """Retransmission timer fired: capped exponential backoff over a
        bounded retransmit budget; re-arms unless the op gave up."""
        gid = timer.gid
        pending = self._pending.get(gid)
        if pending is None or pending.watchdog is not timer or pending.event.triggered:
            return  # completed (``_complete`` popped it), or the id was reused
        sim = self.sim
        fp = self.params.faults
        rto = timer.rto
        # acks that arrived within the last interval mean the op is
        # making progress: hold fire for another interval
        if sim.now - pending.last_progress >= rto:
            if pending.attempts > fp.max_retransmits:
                self.timeouts += 1
                tel = sim.telemetry
                if tel.enabled:
                    self._handles.get(tel.metrics)[3].inc()
                    self._backoff_span(tel, pending, gid, gave_up=True)
                pending.nacks.append(
                    {"reason": "timeout", "ack_for": gid, "attempts": pending.attempts}
                )
                self._complete(gid, ok=False)
                return
            pending.attempts += 1
            n = len(pending.messages)
            self.retransmits += n
            tel = sim.telemetry
            if tel.enabled:
                self._handles.get(tel.metrics)[2].inc(n)
                self._backoff_span(tel, pending, gid, gave_up=False)
            for msg in pending.messages:
                self._spawn_tx(msg, False, self._pname_rtx)
            pending.last_progress = sim.now
            timer.rto = min(rto * fp.rto_backoff, fp.rto_max_ns)
        sim._call_soon1(timer.fire, None, delay=timer.rto)

    def _backoff_span(self, tel, pending: PendingOp, gid: int, gave_up: bool) -> None:
        """Record the stalled window ``[last_progress, now)`` that the
        retransmission timer just sat out as a ``retransmit``-phase span.

        The phase is attributed at the *lowest* anatomy priority (see
        :mod:`repro.telemetry.anatomy`): backoff only claims time in
        which no other stage of the request made progress, which is
        exactly the latency the fault added.
        """
        now = self.sim.now
        if now <= pending.last_progress:
            return
        tel.span(
            ("rto gave-up" if gave_up else f"rto backoff x{pending.attempts}"),
            pid="net",
            tid=self.name,
            t0=pending.last_progress,
            t1=now,
            cat="retransmit",
            trace=pending.trace,
            args={"greq_id": gid, "attempts": pending.attempts},
            phase="retransmit",
        )

    def _spawn_tx(self, msg: Message, post_overhead: bool, name: str) -> None:
        """Start sending ``msg`` at its submit instant.

        WQE construction + doorbell on the initiating host (when
        ``post_overhead``), then the NIC tx pipeline latency (once per
        message; packets then stream at line rate through the fixed-depth
        pipeline).  Nothing happens in between, so the sender (a
        :class:`_Tx`) starts at the float the two sequential sleeps would
        reach, from one heap entry.
        """
        sim = self.sim
        p = self.params
        t0 = sim.now
        if post_overhead:
            at = t0 + p.client_post_ns + p.nic_tx_ns
        else:
            at = t0 + p.nic_tx_ns
        sim._call_at1(_Tx(self, msg, t0, name).start, None, at)

    # ==================================================== target side
    def receive(self, pkt: Packet) -> None:
        """Network delivery entry point (called by the link layer)."""
        if self.sim.now >= self.crashed_at:
            return
        if pkt.corrupted:
            # failed CRC: drop at the NIC, initiator will retransmit
            self.rx_dropped += 1
            return
        faults = self.sim.faults
        if faults is not None and faults.node_is_down(self.name):
            faults.count_node_drop(self.name)
            return
        self.rx_packets += 1
        # rx pipeline latency, then dispatch (closure-free scheduling)
        self.sim._call_soon1(self._dispatch, pkt, delay=self.params.nic_rx_ns)

    def arrive(self, pkt: Packet, t_arr: float) -> None:
        """Fused delivery of an intact packet, at the sender's tx-done:
        the packet arrives at ``t_arr`` and is dispatched after the rx
        pipeline latency, from one heap entry.  The link never hands a
        corrupted packet here (``receive`` drops those); the crash and
        node-down checks of ``receive`` run at the dispatch, against the
        arrival instant, since the node may die while the packet is in
        flight."""
        self.sim._call_at1(
            self._dispatch_arrived, (pkt, t_arr), t_arr + self.params.nic_rx_ns
        )

    def _dispatch_arrived(self, arg: tuple) -> None:
        pkt, t_arr = arg
        if t_arr >= self.crashed_at:
            return
        faults = self.sim.faults
        if faults is not None and faults.node_is_down(self.name, t_arr):
            faults.count_node_drop(self.name)
            return
        self.rx_packets += 1
        self._dispatch(pkt)

    def _dispatch(self, pkt: Packet) -> None:
        for hook in self.rx_hooks:
            if hook(pkt):
                return
        if self.accelerator is not None and self.accelerator.ingest(pkt):
            return
        op = pkt.op
        if op == "write":
            self._rx_write(pkt)
        elif op == "read_req":
            self.sim._call_soon1(_Tx(self, None, None, self._pname_read).serve_read, pkt)
        elif op == "read_resp":
            self._rx_read_resp(pkt)
        elif op == "rpc":
            self._rx_rpc(pkt)
        elif op in ("ack", "nack", "rpc_resp"):
            self._rx_ack(pkt)
        else:
            raise ValueError(f"{self.name}: unknown packet op {op!r}")

    # -------------------------------------------------------- raw writes
    def _write_addr(self, pkt: Packet) -> int:
        wrh = pkt.headers.get("wrh")
        if wrh is not None:
            return wrh.addr
        return pkt.headers["addr"]

    def _rx_write(self, pkt: Packet) -> None:
        done = self._done_writes.get(pkt.msg_id)
        if done is not None:
            # Retransmission of a write we already committed and acked:
            # never re-DMA; re-ack on the completion packet in case the
            # original ack was the packet that got lost.
            if pkt.is_completion:
                reply, greq = done
                self.dup_completions += 1
                self.acks_sent += 1
                self.send_control(
                    reply,
                    "ack",
                    {
                        "ack_for": greq,
                        "node": self.name,
                        "dedup": (self.name, "w", pkt.msg_id),
                    },
                    trace=pkt.trace,
                )
            return
        if pkt.is_header:
            dfs = pkt.headers.get("dfs")
            self._rx_writes[pkt.msg_id] = {
                "addr": self._write_addr(pkt),
                "reply": (
                    dfs.reply_to
                    if dfs is not None
                    else pkt.headers.get("reply_to", pkt.src)
                )
                or pkt.src,
                "greq": dfs.greq_id if dfs is not None else pkt.headers.get("greq_id"),
                "got": 0,
            }
        st = self._rx_writes.get(pkt.msg_id)
        if st is None:
            return  # header lost/cleaned: drop silently
        if pkt.payload is not None:
            st["got"] += pkt.payload.nbytes
            memory = self.host.memory
            if memory is not None:
                payload = pkt.payload
                addr = st["addr"] + pkt.payload_offset
                pcie = self.host.pcie
                if pcie is None:
                    memory.write(addr, payload)
                else:
                    # nothing waits on the flush: the ack races it
                    pcie.post_write(memory, addr, payload, trace=pkt.trace)
        if pkt.is_completion:
            self._rx_writes.pop(pkt.msg_id, None)
            if st["got"] != pkt.payload_offset + pkt.payload_bytes:
                # middle packets were lost: never ack a short delivery;
                # drop the state and let the initiator retransmit
                self.incomplete_drops += 1
                return
            self._remember_done(pkt.msg_id, (st["reply"], st["greq"]))
            # RDMA semantics: ack once the last packet is received; the
            # data may still sit in PCIe buffers (§III-B1).
            self.acks_sent += 1
            self.send_control(
                st["reply"],
                "ack",
                {
                    "ack_for": st["greq"],
                    "node": self.name,
                    "dedup": (self.name, "w", pkt.msg_id),
                },
                trace=pkt.trace,
            )

    def _remember_done(self, msg_id: int, val: tuple) -> None:
        if len(self._done_writes) >= 4096:
            self._done_writes.pop(next(iter(self._done_writes)))
        self._done_writes[msg_id] = val

    # --------------------------------------------------------- reads
    def _rx_read_resp(self, pkt: Packet) -> None:
        key = (pkt.msg_id, "rgreq")
        if pkt.is_header:
            self._rx_writes[key] = {"greq": pkt.headers["greq_id"], "got": 0}
        st = self._rx_writes.get(key)
        if st is None:
            return
        pending = self._pending.get(st["greq"])
        if pending is None:
            # op already completed (e.g. via a duplicate response stream)
            if pkt.is_completion:
                self._rx_writes.pop(key, None)
            return
        if pkt.payload is not None:
            st["got"] += pkt.payload.nbytes
            off = pkt.payload_offset
            pending.data[off : off + pkt.payload.nbytes] = pkt.payload
            pending.last_progress = self.sim.now
        if pkt.is_completion:
            self._rx_writes.pop(key, None)
            if st["got"] != pkt.payload_offset + pkt.payload_bytes:
                self.incomplete_drops += 1
                return
            self._complete(st["greq"], ok=True)

    # ----------------------------------------------------------- rpc
    def _rx_rpc(self, pkt: Packet) -> None:
        key = (pkt.msg_id, "rpc")
        if pkt.is_header:
            self._rx_writes[key] = {
                "headers": pkt.headers,
                "chunks": [],
                "src": pkt.src,
                "got": 0,
            }
        st = self._rx_writes.get(key)
        if st is None:
            return
        if pkt.payload is not None:
            st["chunks"].append(pkt.payload)
            st["got"] += pkt.payload.nbytes
        if pkt.is_completion:
            self._rx_writes.pop(key)
            if st["got"] != pkt.payload_offset + pkt.payload_bytes:
                self.incomplete_drops += 1
                return
            payload = (
                np.concatenate(st["chunks"]) if st["chunks"] else np.zeros(0, np.uint8)
            )
            # The command (and inline data) crosses PCIe into host memory
            # before the CPU can see it.
            def deliver():
                self.host.on_rpc(st["headers"], payload, st["src"])

            if self.host.pcie is not None:
                self.host.pcie.dma(payload.nbytes + 64, on_complete=deliver, trace=pkt.trace)
            else:
                deliver()

    # ----------------------------------------------------------- acks
    def _rx_ack(self, pkt: Packet) -> None:
        greq = pkt.headers.get("ack_for") or pkt.headers.get("greq_id")
        pending = self._pending.get(greq)
        if pending is None:
            return
        if pkt.op == "nack":
            pending.nacks.append(pkt.headers)
            self._complete(greq, ok=False)
            return
        if pkt.op == "rpc_resp":
            pending.data = pkt.headers.get("result")
            self._complete(greq, ok=not pkt.headers.get("error", False))
            return
        key = pkt.headers.get("dedup")
        if key is not None:
            if key in pending.ack_keys:
                # a retransmission made the target re-ack: count it as
                # progress but never towards completion
                self.dup_acks += 1
                pending.last_progress = self.sim.now
                return
            pending.ack_keys.add(key)
        pending.acks += 1
        pending.last_progress = self.sim.now
        pending.info.update(
            {k: v for k, v in pkt.headers.items() if k not in ("ack_for", "node", "dedup")}
        )
        if pending.acks >= pending.expected_acks:
            self._complete(greq, ok=True)

    def _complete(self, greq: int, ok: bool) -> None:
        pending = self._pending.pop(greq, None)
        if pending is None:
            return
        san = self.sim.sanitizer
        if san is not None:
            san.retire("greq", (self.name, greq))
        if pending.event.triggered:
            return
        res = OpResult(
            ok=ok,
            t_start=pending.t_start,
            t_end=self.sim.now + self.params.client_completion_ns,
            greq_id=greq,
            nacks=pending.nacks,
            data=pending.data,
            info=pending.info,
        )
        # Completion is visible to the application after the CQ poll,
        # which wakes the waiters itself (one dispatch, not two).
        self.sim._call_soon1(
            pending.event.succeed_inline, res, delay=self.params.client_completion_ns
        )

    # ------------------------------------------------------------ misc
    def pending_count(self) -> int:
        return len(self._pending)
