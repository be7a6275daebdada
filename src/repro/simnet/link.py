"""Links and ports: the serializing, store-and-forward wire model.

Each :class:`Port` owns an unbounded egress queue that charges
serialization time (``bytes * 8 / bandwidth``) per packet, then delivers
the packet to the attached peer after the link propagation latency.  The
port refuses nothing: back-pressure comes from senders that wait on
``send``'s tx-done event before offering their next packet (the NIC's
send loop), and from the accelerator's handler egress queue
(``repro.pspin.accelerator._HandlerEgress``) with its ``egress_credits``
slots, where a PsPIN handler that forwards two packets per incoming
packet (sPIN-PBT) blocks.  That stall is the mechanism behind the
paper's observed IPC collapse (Table I, IPC 0.06 for PBT payload
handlers).

The egress path is a fused callback chain rather than a server process:
``enqueue`` starts serialization immediately when the wire is idle,
otherwise appends to a deque; a single ``tx-done`` kernel event per
packet fires the sender's completion event if it has one (quietly,
when nobody waits on it yet: ``send`` makes one, a switch hop's
``enqueue`` does not), hands the packet on, and starts the next
packet.  The fault injector's verdict for this wire is drawn at
tx-done too, so nothing more can happen to an intact packet in flight:
a peer with an ``arrive(pkt, t_arr)`` entry takes it at tx-done, with
its arrival instant, and schedules its own next step from there
(running its own arrival-time checks then): a hop costs the tx-done
event plus the peer's next real step, with the same simulated
timestamps as a separate delivery event.  Corrupted packets, and peers
without ``arrive``, get their ``receive`` scheduled at the arrival
instant.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Protocol, Tuple

from ..telemetry.metrics import HandleCache
from .engine import Deferrer, Event, Simulator
from .packet import Packet

__all__ = ["Port", "Endpoint", "gbps_to_ns_per_byte"]

#: packet ops whose serialization is the *ack leg* of a request — their
#: wire spans carry the "ack" latency-anatomy phase instead of "wire"
_ACK_OPS = frozenset(("ack", "nack", "rpc_resp"))


def gbps_to_ns_per_byte(gbps: float) -> float:
    """Serialization cost in ns/byte for a line rate in Gbit/s."""
    return 8.0 / gbps


class Endpoint(Protocol):
    """Anything that can terminate a link.  It may also define
    ``arrive(pkt, t_arr)``, called at tx-done for an intact packet with
    its arrival instant (see :meth:`Port._tx_done`)."""

    name: str

    def receive(self, pkt: Packet) -> None: ...


class Port(Deferrer):
    """A full-duplex network port with a serializing egress queue.

    A switch hop onto a wire busy strictly past the hop's enqueue
    instant can only join the queue, so :meth:`defer_enqueue` records
    it as a deferred entry (:class:`~repro.simnet.engine.Deferrer`;
    ``_dq`` holds ``[enqueue instant, seq, armed, packet]``) with the
    heap rank its ``enqueue`` would have had.  Visibility rule: the port
    applies its due deferred arrivals, in rank order, before anything
    reads its queue (``enqueue``, the tx-done that starts the next
    packet).  ``_free_t`` is when the wire finishes every packet
    accepted so far (in service, queued or deferred): the exact float
    its chain of tx-done instants reaches.
    """

    def __init__(self, sim: Simulator, owner_name: str, bandwidth_gbps: float) -> None:
        self.sim = sim
        self.owner_name = owner_name
        self.bandwidth_gbps = bandwidth_gbps
        self._ns_per_byte = gbps_to_ns_per_byte(bandwidth_gbps)
        #: packets accepted but not yet on the wire (excludes in-service)
        self._q: Deque[Tuple[Packet, Optional[Event]]] = deque()
        self._busy = False
        self._cur_pkt: Optional[Packet] = None
        self._cur_done: Optional[Event] = None
        #: end of the last accepted packet's serialization (see class doc)
        self._free_t = 0.0
        self._dsim = sim
        self._dq: Deque[list] = deque()
        self.peer: Optional[Endpoint] = None
        self.latency_ns: float = 0.0
        #: the peer's fused delivery entry, if it has one
        self._arrive: Optional[Callable[[Packet, float], None]] = None
        # statistics
        self.tx_packets = 0
        self.tx_bytes = 0
        self.busy_ns = 0.0
        # Metric handles are resolved once per registry, not per packet
        # (the old per-packet f"link.{name}.queue_depth" formatting plus
        # dict lookup dominated the enabled-telemetry egress cost).
        name = owner_name
        self._handles = HandleCache(
            lambda m: (
                m.gauge(f"link.{name}.queue_depth"),
                m.counter(f"link.{name}.busy_ns"),
                m.counter(f"link.{name}.tx_bytes"),
                m.counter(f"link.{name}.tx_packets"),
            )
        )

    # -- wiring ----------------------------------------------------------
    def connect(self, peer: Endpoint, latency_ns: float) -> None:
        if self.peer is not None:
            raise RuntimeError(f"port of {self.owner_name} already connected")
        self.peer = peer
        self.latency_ns = latency_ns
        self._arrive = getattr(peer, "arrive", None)

    # -- sending ---------------------------------------------------------
    def send(self, pkt: Packet) -> Event:
        """Enqueue a packet for transmission.

        Returns an event that fires when the packet has been *fully
        serialized onto the wire* (not when delivered).  Yielding on it
        models a sender that blocks until egress accepts its data.  A
        forwarder that never waits (a switch hop) calls :meth:`enqueue`,
        which builds no event.
        """
        done = Event(self.sim)
        self.enqueue(pkt, done)
        return done

    def enqueue(self, pkt: Packet, done: Optional[Event] = None) -> None:
        """Enqueue a packet; ``done`` (if any) succeeds at its tx-done.

        The port's one enqueue: ``send`` and switch hops both come here.
        """
        sim = self.sim
        dq = self._dq
        if dq and dq[0][0] <= sim.now:
            self._settle()
        pkt.enqueue_t = sim.now
        ser = pkt.size * self._ns_per_byte
        if self._busy:
            self._q.append((pkt, done))
            self._free_t += ser
        else:
            self._free_t = sim.now + ser
            self._start(pkt, done, ser)
        tel = sim.telemetry
        if tel.enabled:
            self._handles.get(tel.metrics)[0].set(
                sim.now, len(self._q) + 1  # +1: the packet now in service
            )

    def defer_enqueue(self, pkt: Packet, t: float) -> bool:
        """Take ``pkt``'s :meth:`enqueue` at ``t`` as a deferred entry, if
        nothing can observe it: telemetry off and the wire busy strictly
        past ``t``, so the packet can only join the
        queue (behind the same packets, with the same start instant).
        Returns False, recording nothing, otherwise, or when ``t`` is
        earlier than the last deferred arrival's (rank order)."""
        sim = self.sim
        if self._free_t <= t or sim.telemetry.enabled:
            return False
        dq = self._dq
        if dq and dq[-1][0] > t:
            return False
        sim._seq += 1
        self._defer([t, sim._seq, None, pkt])
        self._free_t += pkt.size * self._ns_per_byte
        return True

    def _apply(self, rec: list) -> None:
        pkt = rec[3]
        pkt.enqueue_t = rec[0]
        self._q.append((pkt, None))

    # -- egress fast path -------------------------------------------------
    def _start(self, pkt: Packet, done: Optional[Event], ser: float) -> None:
        """Start serializing ``pkt`` (``ser`` ns) on the idle wire."""
        self._busy = True
        self._cur_pkt = pkt
        self._cur_done = done
        self.sim._call_soon1(self._tx_done, ser, delay=ser)

    def _tx_done(self, ser: float) -> None:
        sim = self.sim
        pkt = self._cur_pkt
        done = self._cur_done
        assert pkt is not None
        self.tx_packets += 1
        self.tx_bytes += pkt.size
        self.busy_ns += ser
        tel = sim.telemetry
        if tel.enabled:
            now = sim.now
            t0 = now - ser
            tel.span(
                f"{pkt.op} m{pkt.msg_id} {pkt.seq + 1}/{pkt.nseq}",
                pid="net",
                tid=self.owner_name,
                t0=t0,
                t1=now,
                cat="net",
                trace=pkt.trace,
                args={"bytes": pkt.size, "queued_ns": t0 - pkt.enqueue_t},
                phase="ack" if pkt.op in _ACK_OPS else "wire",
            )
            gauge, busy, nbytes, npkts = self._handles.get(tel.metrics)
            busy.inc(ser)
            nbytes.inc(pkt.size)
            npkts.inc()
            gauge.set(now, len(self._q))
        if done is not None:
            done.succeed_quiet(pkt)
        # Start serializing the next queued packet before dealing with
        # this one's fate on the wire (pipelined wire: propagation never
        # blocks the serializer).
        self._start_next()
        peer = self.peer
        assert peer is not None
        faults = sim.faults
        if faults is not None:
            # Wire faults strike after serialization (the sender paid
            # the egress cost either way) and before propagation.
            verdict = faults.egress_verdict(self.owner_name, pkt)
            if verdict == "drop":
                return
            if verdict == "corrupt":
                pkt.corrupted = True
        # The fate on this wire is decided now, so an intact packet goes
        # to a peer's fused entry with its arrival instant; that entry
        # runs the receiver's own checks (crash, node-down windows) at
        # the arrival instant.  A corrupted packet (on this hop or an
        # earlier one: the flag sticks) takes ``receive``, where the
        # receiving NIC's CRC check drops it.
        arrive = self._arrive
        if arrive is not None and not pkt.corrupted:
            arrive(pkt, sim.now + self.latency_ns)
            return
        sim._call_soon1(peer.receive, pkt, delay=self.latency_ns)

    def _start_next(self) -> None:
        """Serialize the next queued packet (deferred arrivals due by
        now queue first), or leave the wire idle."""
        dq = self._dq
        if dq and dq[0][0] <= self.sim.now:
            self._settle()
        if self._q:
            nxt, nxt_done = self._q.popleft()
            self._start(nxt, nxt_done, nxt.size * self._ns_per_byte)
        else:
            self._busy = False
            self._cur_pkt = None
            self._cur_done = None

    def utilisation(self) -> float:
        return self.busy_ns / self.sim.now if self.sim.now > 0 else 0.0
