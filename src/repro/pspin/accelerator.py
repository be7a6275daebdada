"""The PsPIN on-NIC packet processor (transaction-level model).

Per-packet pipeline, timed per Fig. 7 (2 KiB packet):

1. copy into the NIC packet buffer        — 32 cycles (64 B/cycle)
2. hardware scheduler picks a cluster     — 2 cycles
3. copy into the cluster's L1             — 43 cycles (≈48 B/cycle)
4. dispatch onto an idle HPU              — 1 ns
5. handler execution                      — cost model + waits

Handler ordering per message follows sPIN's contract (§II-B1, §III-B):
the header handler (HH) runs on the first packet and *completes* before
any payload handler (PH) of the same message starts; PHs run on every
packet, concurrently across HPUs; the completion handler (CH) runs once
all packets are processed.  Handlers of one message run in one cluster
(their shared state lives in that cluster's L1).

Two emergent effects the model must produce (not hard-code):

* **egress stalls** — handlers that forward packets block until the NIC
  egress port transmits them; under PBT replication each incoming packet
  begets two outgoing ones, the port saturates, and PH occupancy
  stretches to ~2 µs with IPC ~0.06 (Table I);
* **L1 contention** — memory-intensive handlers (the GF encode loop) see
  a CPI penalty growing with concurrently active HPUs in their cluster,
  producing the ~12 % EC throughput drop at high utilisation (§VI-C(b)).

How the model runs: a packet's trip through the pipeline is a
:class:`_PacketRecord` whose stages are heap callbacks, not a coroutine.
Each sleep is one ``_call_soon1``/``_call_at1`` push, and each wait
(header done, payload handlers done, an HPU or quota grant) is a
callback on that event, in the same heap positions a coroutine's
``Process._wait_on`` would take, so the schedule is entry-for-entry the
one a process per packet would produce.  A handler run builds only what
something waits on: the record takes an HPU slot of its cluster's
:class:`~repro.simnet.resources.Resource` itself (no ``Request``; a
queued record is granted by one push where a request's grant went),
and ``Handler.run`` returns None for a body that finished without
waiting (the skeleton's admitted header, a straight-line payload
policy) or the one generator still to run, which the record steps with
``send``/``throw``, waiting on what it yields.  Handler egress is a
FIFO of ``egress_credits`` slots fused with its pump
(:class:`_HandlerEgress`): one transmission in flight, blocked putters
queued FIFO.
"""

from __future__ import annotations

import weakref
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

import numpy as np

from ..hostsim.pcie import flush_channel, flush_event
from ..hostsim.pcie import pending_flushes as _pending_flushes
from ..params import PsPinParams

# ``repro.core`` imports ``repro.pspin.isa``, so whichever package loads
# first finds the other half-initialized: bind the module, not ``Task``,
# and read ``_core_context.Task`` once both have loaded.
from ..core import context as _core_context

if TYPE_CHECKING:  # pragma: no cover
    from ..core.context import ExecutionContext
from ..simnet.engine import _DISPATCHED, Event, SimulationError, Simulator
from ..simnet.packet import Packet, fresh_msg_id
from ..simnet.resources import Resource

__all__ = ["PsPinAccelerator", "HandlerApi", "HandlerStats"]


@dataclass
class HandlerStats:
    """Per-handler-type measurements (drives Tables I/II, Figs. 11/16)."""

    durations_ns: List[float] = field(default_factory=list)
    instructions: List[int] = field(default_factory=list)

    def record(self, duration_ns: float, instructions: int) -> None:
        self.durations_ns.append(duration_ns)
        self.instructions.append(instructions)

    @property
    def n(self) -> int:
        return len(self.durations_ns)

    def mean_duration(self) -> float:
        return sum(self.durations_ns) / self.n if self.n else 0.0

    def mean_instructions(self) -> float:
        return sum(self.instructions) / self.n if self.n else 0.0

    def mean_ipc(self, freq_ghz: float) -> float:
        """IPC as the paper reports it: instructions / (duration * freq)."""
        d = self.mean_duration()
        return self.mean_instructions() / (d * freq_ghz) if d > 0 else 0.0


class _Cluster:
    """One cluster: ``hpus``, the HPU pool whose slots packet records
    take themselves (``Resource.acquire``); the cleanup process takes
    one as a ``Request`` of the same pool."""

    def __init__(self, sim: Simulator, idx: int, params: PsPinParams):
        self.idx = idx
        self.hpus = Resource(sim, params.hpus_per_cluster, name=f"cluster{idx}.hpus")
        self.active = 0  # handlers currently in their compute phase
        #: ``(t0, seq)`` of each running handler that took the one-wake-up
        #: path (see ``_PacketRecord.dispatch``): active from ``t0`` on,
        #: ordered among the entries due at ``t0`` by ``seq``, until the
        #: handler ends
        self.pending: List[tuple] = []

    def active_at(self, own: tuple) -> int:
        """Handlers in their compute phase as seen by the heap entry
        ``own = (t, seq)`` being dispatched now: ``active`` plus every
        one-wake-up activation that would have been dispatched first."""
        return self.active + sum(1 for act in self.pending if act < own)


class _MessageRun:
    """Book-keeping for one in-flight message's handler executions."""

    __slots__ = (
        "msg_id",
        "ctx",
        "cluster",
        "task",
        "hh_done",
        "phs_done",
        "expected",
        "ph_seqs",
        "completion_seen",
        "dma_events",
        "last_activity",
        "finished",
        "trace",
        "api",
    )

    def __init__(self, sim: Simulator, msg_id: int, ctx: "ExecutionContext", cluster: int):
        self.msg_id = msg_id
        self.ctx = ctx
        self.cluster = cluster
        self.task = _core_context.Task(ctx=ctx, flow_id=msg_id, cluster=cluster)
        self.hh_done: Event = sim.event(name=f"hh_done({msg_id})")
        self.phs_done: Event = sim.event(name=f"phs_done({msg_id})")
        self.expected: Optional[int] = None
        #: distinct packet seqs whose payload handler finished — a set,
        #: not a counter: under retransmission, duplicate packets must
        #: not stand in for a seq that never arrived
        self.ph_seqs: set = set()
        self.completion_seen = False
        self.dma_events: List[Event] = []
        self.last_activity = 0.0
        self.finished = False
        self.trace = None  # request TraceContext (telemetry)
        self.api = None  # memoized HandlerApi (one per run is enough)


class _HandlerEgress:
    """The handler egress command queue fused with the pump that drains
    it at line rate, one transmission in flight (like a DMA engine
    feeding the wire).

    ``put`` returns an event that fires once the queue accepts the
    packet: at once while a slot is free, later for a putter blocked on
    a full queue (FIFO), which is the back-pressure behind Table I's PBT
    numbers, and the model's only producer that blocks.  The pump is two
    callbacks: ``_send`` transmits one packet and waits on the port's
    tx-done event; ``_next`` then takes the next packet or parks.  A put to a parked pump wakes it with one
    ``_call_soon1``.
    """

    __slots__ = ("sim", "send_fn", "capacity", "name", "strand", "_put_name",
                 "items", "_putters", "parked")

    def __init__(self, sim: Simulator, send_fn: Callable[[Packet], Event],
                 capacity: int, name: str) -> None:
        self.sim = sim
        self.send_fn = send_fn
        self.capacity = capacity
        self.name = name
        #: simsan attributes the pump's pushes to this callback chain
        self.strand = name
        self._put_name = f"put({name})"
        self.items: deque = deque()
        #: ``(event, packet)`` of each put waiting for a free slot (what
        #: simsan's accelerator sweep reports as ``leak-store``)
        self._putters: deque = deque()
        self.parked = False
        # the pump's first look at its queue
        sim._call_soon1(self._next, None)

    def put(self, pkt: Packet) -> Event:
        sim = self.sim
        ev = Event(sim, self._put_name)
        if self.parked:
            self.parked = False
            sim._call_soon1(self._send, pkt)
            ev.succeed(None)
        elif len(self.items) < self.capacity:
            self.items.append(pkt)
            ev.succeed(None)
        else:
            self._putters.append((ev, pkt))
            san = sim.sanitizer
            if san is not None:
                san.claim("store-wait", id(ev), self.name)
        return ev

    def _send(self, pkt: Packet) -> None:
        tx = self.send_fn(pkt)
        if not isinstance(tx, Event):
            raise SimulationError(f"{self.name}: send_fn returned non-event {tx!r}")
        tx.add_callback(self._next)

    def _next(self, _tx) -> None:
        items = self.items
        if not items:
            self.parked = True
            return
        pkt = items.popleft()
        if self._putters:
            pev, pitem = self._putters.popleft()
            items.append(pitem)
            san = self.sim.sanitizer
            if san is not None:
                san.retire("store-wait", id(pev))
            pev.succeed(None)
        self.sim._call_soon1(self._send, pkt)


class _PacketRecord:
    """One packet's pass through the pipeline, run as heap callbacks.

    Each method is one stage, entered from the heap (a sleep is one
    ``_call_soon1``/``_call_at1`` push) or from the event it waited on
    (a callback appended to it).  Waits follow ``Process._wait_on``: a
    wait on an event that was already dispatched costs one
    ``_call_soon1``.  Same-instant ordering therefore matches a process
    per packet, which ``tests/test_pspin_pins.py`` pins.

    Stage order: ``f1`` (end of packet buffer + scheduler) -> ``l1_done``
    -> ``gate`` (header handler first, payload handlers after
    ``hh_done``) -> ``activate`` (quota, HPU: slots the record holds
    itself, so a free HPU costs no object) -> ``dispatch`` ->
    [``dispatched``] -> ``run_body`` -> ``step``* (only for a body that
    returned a generator) -> ``handler_done`` ->
    the next handler or ``completion_gate`` (after ``phs_done``).

    ``strand`` names the chain for simsan, as a process name would.
    """

    __slots__ = (
        "acc", "ctx", "pkt", "l1_ns", "run", "xcl",
        "htype", "cluster", "quota", "cost", "writer", "t0", "act",
        "own", "body",
    )

    strand = "pspin.pipeline"

    def __init__(self, acc: "PsPinAccelerator", ctx: "ExecutionContext", pkt: Packet) -> None:
        self.acc = acc
        self.ctx = ctx
        self.pkt = pkt

    # ----------------------------------------------------------- ingress
    def f1(self, _) -> None:
        """F1 done: run lookup and cluster picks, then the L1 copy
        (``l1_ns``, set at ingest)."""
        acc = self.acc
        self.run, self.xcl = acc._pipeline_front(self.ctx, self.pkt)
        acc.sim._call_soon1(self.l1_done, None, self.l1_ns)

    def l1_done(self, _) -> None:
        acc = self.acc
        acc._queued -= 1
        acc.packets_processed += 1
        self.gate()

    # -------------------------------------------------- handler ordering
    def gate(self) -> None:
        """Handler-ordering stage (post L1 copy)."""
        run = self.run
        if self.pkt.is_header:
            self.activate("header", run.cluster)
        elif not run.hh_done.triggered:
            run.hh_done.add_callback(self.payload)
        else:
            self.payload()

    def payload(self, _=None) -> None:
        run = self.run
        if run.finished:
            self.acc.packets_dropped += 1
            return
        if self.pkt.is_completion:
            run.completion_seen = True
        self.activate("payload", self.xcl)

    def completion_gate(self) -> None:
        """Park until every payload handler has finished, then run the
        completion handler."""
        phs_done = self.run.phs_done
        if phs_done.triggered:
            self.completion()
        else:
            phs_done.add_callback(self.completion)

    def completion(self, _=None) -> None:
        run = self.run
        if run.finished:
            # the cleanup sweeper gave up on this message while we were
            # parked on phs_done
            self.acc.packets_dropped += 1
            return
        self.activate("completion", run.cluster)

    # ------------------------------------------------- one handler run
    def activate(self, htype: str, cluster_idx: int) -> None:
        """Run one handler on an HPU of cluster ``cluster_idx``: take the
        tenant quota (§VII cloud QoS: a context may not occupy more than
        its share of the HPU pool), then an HPU."""
        self.htype = htype
        self.cluster = self.acc.clusters[cluster_idx]
        self.quota = quota = self.run.ctx._quota_sem
        if quota is None:
            self.request_hpu()
        elif quota.acquire(self, self.request_hpu):
            # a quota granted at once still resumes through one push, as
            # a coroutine waiting on the granted request would
            self.acc.sim._call_soon1(self.request_hpu, None)

    def request_hpu(self, _=None) -> None:
        """Take an HPU slot: an idle HPU grants at once; otherwise the
        record waits in the cluster's FIFO and the release that frees a
        slot pushes ``dispatch``."""
        if self.cluster.hpus.acquire(self, self.dispatch):
            self.dispatch()

    def dispatch(self, _=None) -> None:
        """HPU granted: a 1 ns dispatch, then the compute phase.

        With telemetry off and a cost that is not memory-intensive
        nothing observes the instant between them, so the handler wakes
        once, at the float the two sleeps would reach; its activation is
        recorded in ``cluster.pending`` for memory-intensive handlers
        that read the cluster's activity (``_Cluster.active_at``)."""
        acc = self.acc
        sim = acc.sim
        p = acc.params
        run = self.run
        writers = acc._writers
        mid = run.msg_id
        # The cost reads this message's request entry, which only
        # header, completion and cleanup handler bodies write.  With
        # none of them running, nothing can rewrite the entry before
        # this handler's own dispatch ends (a writer granted later runs
        # its body after a dispatch and a compute phase of its own), so
        # the cost is taken now.
        cost = (
            None if mid in writers
            else getattr(run.ctx.handlers, self.htype).cost(run.task, self.pkt)
        )
        self.cost = cost
        self.writer = writer = self.htype != "payload"
        if writer:
            writers[mid] = writers.get(mid, 0) + 1
        if cost is not None and not sim.telemetry.enabled and not cost.mem_intensive:
            self.t0 = t0 = sim.now + p.hpu_dispatch_ns
            sim._call_at1(self.run_body, None, t0 + cost.compute_ns(p.freq_ghz))
            self.act = act = (t0, sim.last_seq)
            self.cluster.pending.append(act)
        else:
            self.act = None
            sim._call_soon1(self.dispatched, None, p.hpu_dispatch_ns)
            # this wake-up's place among same-instant entries
            self.own = (sim.now + p.hpu_dispatch_ns, sim.last_seq)

    def dispatched(self, _) -> None:
        """Dispatch done (two-sleep path): the compute phase begins."""
        acc = self.acc
        sim = acc.sim
        p = acc.params
        cluster = self.cluster
        self.t0 = sim.now
        cluster.active += 1
        tel = sim.telemetry
        if tel.enabled:
            acc._handles.get(tel.metrics)["active"][cluster.idx].set(sim.now, cluster.active)
        cost = self.cost
        if cost is None:
            run = self.run
            cost = self.cost = getattr(run.ctx.handlers, self.htype).cost(run.task, self.pkt)
        contention = 1.0
        if cost.mem_intensive:
            contention += p.l1_contention_per_hpu * max(
                0, cluster.active_at(self.own) - 1
            )
        sim._call_soon1(self.run_body, None, cost.compute_ns(p.freq_ghz, contention))

    def run_body(self, _) -> None:
        """Compute phase done: run the handler.  ``run`` returns None when
        the body is done (no generator was built) or the generator that
        still waits, stepped from here."""
        run = self.run
        api = run.api
        if api is None:
            api = run.api = HandlerApi(self.acc, run)
        body = getattr(run.ctx.handlers, self.htype).run(api, run.task, self.pkt)
        if body is None:
            self.handler_done()
        else:
            self.body = body
            self.step(None)

    def step(self, trigger: Optional[Event]) -> None:
        """Advance the handler body by one yield (``Process._resume``):
        send it the value of the event it waited on, or throw that
        event's failure into it, and wait on the next event it yields.
        A body that raises, or yields what is not an event of this
        simulator, fails ``Simulator.run`` at once."""
        try:
            if trigger is None:
                target = self.body.send(None)
            elif trigger._exc is not None:
                target = self.body.throw(trigger._exc)
            else:
                target = self.body.send(trigger._value)
        except StopIteration:
            self.body = None
            self.handler_done()
            return
        sim = self.acc.sim
        if not isinstance(target, Event) or target.sim is not sim:
            raise SimulationError(
                f"{self.htype} handler of {self.run.ctx.name!r} yielded {target!r}, "
                f"not an event of its simulator"
            )
        # add_callback, inlined (one per handler wait on the hot path)
        cbs = target.callbacks
        if cbs is _DISPATCHED:
            sim._call_soon1(self.step, target)
        elif cbs is None:
            target.callbacks = [self.step]
        else:
            cbs.append(self.step)

    def handler_done(self) -> None:
        """The body finished: give back what the handler holds, innermost
        first, record it, and go on to the message's next handler."""
        cluster = self.cluster
        if self.act is None:
            cluster.active -= 1
        else:
            cluster.pending.remove(self.act)
        if self.writer:
            writers = self.acc._writers
            mid = self.run.msg_id
            n = writers.pop(mid) - 1
            if n:
                writers[mid] = n
        cluster.hpus.release(self)
        quota = self.quota
        if quota is not None:
            quota.release(self)
        acc = self.acc
        run = self.run
        htype = self.htype
        acc._handler_end(htype, run, cluster, self.cost, self.t0, acc.sim.now)
        if htype == "payload":
            acc._payload_done(run, self.pkt, acc.sim.now)
            if self.pkt.is_completion:
                self.completion_gate()
        elif htype == "header":
            if not run.hh_done.triggered:
                run.hh_done.succeed_quiet(None)
            self.payload()
        else:
            acc._finish(run)


_INF = float("inf")


#: simulator -> its cleanup-sweep clock (weak: it goes with the simulator)
_sweep_clocks: "weakref.WeakKeyDictionary[Simulator, _SweepClock]" = (
    weakref.WeakKeyDictionary()
)


class _SweepClock:
    """The cleanup sweepers' shared timer, one per simulator.

    Each distinct grid instant takes one heap entry, however many
    accelerators are due there, and ticks them in install order.  Per-
    accelerator timers armed at different times would tie at common grid
    instants, and their order would then hang on heap insertion order.
    The clock holds its accelerators weakly, so it keeps no testbed alive.
    """

    __slots__ = ("due", "installed")

    def __init__(self) -> None:
        #: grid instant -> [(install rank, weak accelerator)] due there
        self.due: Dict[float, list] = {}
        self.installed = 0

    def fire(self, t: float) -> None:
        due = self.due.pop(t)
        if len(due) > 1:
            due.sort()  # ranks are unique: the weakrefs never compare
        for _rank, ref in due:
            accel = ref()
            if accel is not None:
                accel._sweep_tick()


class HandlerApi:
    """What a running handler may do (the sPIN device API)."""

    def __init__(self, accel: "PsPinAccelerator", run: _MessageRun):
        self._accel = accel
        self._run = run

    @property
    def now(self) -> float:
        return self._accel.sim.now

    @property
    def sim(self) -> Simulator:
        return self._accel.sim

    def send(self, pkt: Packet) -> Event:
        """Forward a packet out of the NIC.

        The returned event fires when the egress command queue
        (``egress_credits`` slots, drained one transmission at a time)
        *accepts* the packet; a handler body that yields it waits that
        long.  While egress keeps up with the handler's output the wait
        is ~0; when handlers amplify traffic (PBT: two packets out per
        packet in) the queue fills, later sends queue FIFO, and handlers
        stall here — the back-pressure behind Table I's PBT numbers.
        """
        self._accel.forwarded_packets += 1
        return self._accel._egress.put(pkt)

    def send_control(self, dst: str, op: str, headers: dict, msg_id: Optional[int] = None) -> Event:
        """Emit a small control packet (ack / nack) through the same
        egress queue as :meth:`send`; the returned event fires when the
        queue accepts it."""
        pkt = Packet(
            src=self._accel.node_name,
            dst=dst,
            op=op,
            msg_id=fresh_msg_id() if msg_id is None else msg_id,
            seq=0,
            nseq=1,
            payload=None,
            headers=headers,
            header_bytes=16,
            trace=self._run.trace,
        )
        return self._accel._egress.put(pkt)

    def dma_write(self, addr: int, payload: np.ndarray):
        """Write payload bytes to the host storage target via PCIe.

        Non-blocking: returns the DMA's flush handle.  The data is
        visible in host memory only from its durable instant — exactly
        the persistence subtlety of §III-B1.  The handle is tracked in
        the message run so the completion handler can wait for all
        flushes before acking (:meth:`all_dma_flushed`); to wait on
        chosen ones, pass them to :meth:`pending_flushes`.  On an NVMM
        node the write posts straight to the host channel
        (:meth:`~repro.hostsim.pcie.Pcie.post_write`): with telemetry
        off its handle is a deferred post, which builds no event until a
        waiter asks; otherwise the handle is the flush event.
        """
        acc = self._accel
        chan = acc.dma_channel
        if chan is not None:
            ev = chan.post_write(acc.dma_target, addr, payload)
        else:
            ev = acc.dma_fn(addr, payload)
        self._run.dma_events.append(ev)
        tel = acc.sim.telemetry
        if tel.enabled:
            # The host-commit span covers issue -> durability (PCIe
            # crossing plus, for NVMe backends, the flash program).
            sim = self._accel.sim
            span = tel.begin(
                f"commit {int(payload.nbytes)}B",
                pid=f"host:{self._accel.node_name}",
                tid="commit",
                t0=sim.now,
                cat="host",
                trace=self._run.trace,
                args={"addr": addr, "bytes": int(payload.nbytes)},
                phase="dma",
            )
            durable = getattr(ev, "durable", None)
            if durable is not None:
                # a PCIe flush knows its durable instant at post
                span.t1 = durable
            else:
                ev.add_callback(lambda _e, s=span: tel.end(s, sim.now))
        return ev

    def dma_timing(self, nbytes: int) -> Event:
        """Charge a PCIe crossing of ``nbytes`` with no functional write
        (used by the CPU-fallback aggregation path, §VI-B3)."""
        ev = self._accel.dma_fn(None, nbytes)
        self._run.dma_events.append(ev)
        return ev

    def host_write(self, addr: int, payload: np.ndarray) -> None:
        """Functional write performed by the host CPU (data already in
        host memory; no PCIe charge)."""
        self._accel.host_write_fn(addr, payload)

    def pending_flushes(self, handles) -> List[Event]:
        """The flush events of those DMA ``handles`` (from
        :meth:`dma_write`/:meth:`dma_timing`) not yet durable; a
        deferred post gets its event here, armed at its reserved rank."""
        return [flush_event(h) for h in _pending_flushes(self._accel.sim, handles)]

    def all_dma_flushed(self) -> Event:
        """Event firing when every DMA issued for this message is durable.

        When every pending flush is a completion of one PCIe channel,
        this is the last one posted: the channel serializes FIFO, so
        durable instants never decrease in post order; only that one is
        armed.  Any other set (NVMe flash completions can fail or
        reorder) waits on all."""
        sim = self._accel.sim
        pending = _pending_flushes(sim, self._run.dma_events)
        if not pending:
            ev = sim.event()
            ev.succeed(None)
            return ev
        last = pending[-1]
        chan = flush_channel(last)
        if chan is not None and all(flush_channel(e) is chan for e in pending):
            return flush_event(last)
        return sim.all_of([flush_event(e) for e in pending])

    def compute(self, cycles: float) -> Event:
        """Charge extra compute cycles (rare; costs normally come from
        Handler.cost)."""
        return self._accel.sim.timeout(cycles * self._accel.params.cycle_ns)

    def host_exec(self, duration_ns: float) -> Event:
        """Run work on the host CPU (the CPU-fallback path of §VI-B3).

        Returns an event firing when a host core has executed
        ``duration_ns`` of work on the accelerator's behalf.
        """
        fn = self._accel.host_exec_fn
        if fn is None:
            return self._accel.sim.timeout(duration_ns)
        return fn(duration_ns)

    def host_read(self, addr: int, length: int):
        """Functional read of the storage target (the timing of the PCIe
        fetch must be charged separately via :meth:`dma_timing`)."""
        return self._accel.host_read_fn(addr, length)


class PsPinAccelerator:
    """One storage-node NIC's PsPIN engine."""

    def __init__(
        self,
        sim: Simulator,
        params: PsPinParams,
        node_name: str,
        send_fn: Callable[[Packet], Event],
        dma_fn: Callable[[Optional[int], object], Event],
        host_exec_fn: Optional[Callable[[float], Event]] = None,
        host_write_fn: Optional[Callable[[int, np.ndarray], None]] = None,
        host_read_fn: Optional[Callable[[int, int], np.ndarray]] = None,
    ):
        self.sim = sim
        self.params = params
        self.node_name = node_name
        self.send_fn = send_fn
        self.dma_fn = dma_fn
        self.host_exec_fn = host_exec_fn
        self.host_write_fn = host_write_fn or (lambda addr, payload: None)
        self.host_read_fn = host_read_fn or (
            lambda addr, length: np.zeros(length, dtype=np.uint8)
        )
        # Handler sends go through a shallow egress command queue drained
        # at line rate: handlers block only while the queue is full —
        # negligible for ring forwarding (1 out per 1 in), dominant for
        # PBT (2 out per 1 in), which is what collapses PBT PH IPC.
        self._egress = _HandlerEgress(
            sim, send_fn, params.egress_credits, f"{node_name}.accel-egress"
        )
        self.clusters = [_Cluster(sim, i, params) for i in range(params.n_clusters)]
        self.contexts: List[ExecutionContext] = []
        self._runs: Dict[int, _MessageRun] = {}
        self._next_cluster = 0
        self.stats: Dict[str, HandlerStats] = defaultdict(HandlerStats)
        #: (htype, ctx_name) -> HandlerStats — avoids rebuilding the
        #: "htype:ctx" key string on every handler execution
        self._stats_memo: Dict[tuple, HandlerStats] = {}
        from ..telemetry.metrics import HandleCache

        self._handles = HandleCache(
            lambda m: {
                "busy": m.counter(f"pspin.{node_name}.hpu_busy_ns"),
                "ingested": m.counter(f"pspin.{node_name}.packets_ingested"),
                "queued": m.gauge(f"pspin.{node_name}.ingress_queued"),
                "nacks": m.counter(f"pspin.{node_name}.overload_nacks"),
                "active": [
                    m.gauge(f"pspin.{node_name}.cluster{i}.active")
                    for i in range(params.n_clusters)
                ],
                # per-htype instruments materialize on first use so an
                # htype that never runs (e.g. cleanup) creates nothing
                "inv": {},
                "lat": {},
            }
        )
        # counters
        self.packets_processed = 0
        self.packets_dropped = 0
        self.packets_steered = 0
        self._overloaded: set[int] = set()
        self._admitted: set[int] = set()
        self.forwarded_packets = 0
        self.nacks_sent = 0
        self._queued = 0
        #: msg_id -> header/completion/cleanup handlers of that message
        #: running now (they write its request entry; see
        #: ``_PacketRecord.dispatch``)
        self._writers: Dict[int, int] = {}
        #: lazy cleanup sweeper (see _sweep_arm): the shared grid clock,
        #: this accelerator's (install rank, weak self) key on it, the
        #: last grid point visited, and whether an arm is wanted at the
        #: next run creation (installed, not armed, no batch running)
        self._sweep_clock: Optional[_SweepClock] = None
        self._sweep_key: Optional[tuple] = None
        self._sweep_t = 0.0
        self._sweep_idle = False
        #: host channel and memory of an NVMM node: ``dma_write`` posts
        #: straight to them (None: through dma_fn).  Set by the owning
        #: node when its storage backend completes DMA timelessly (plain
        #: memory write)
        self.dma_channel = None
        self.dma_target = None
        san = sim.sanitizer
        if san is not None:
            san.adopt("accel", self)
            # the per-packet pipeline and the egress pump both tick on
            # the same line-rate wire clock, so their same-instant
            # meetings are engineered
            san.declare_coincident(
                f"strand:{node_name}.accel-egress",
                "strand:pspin.pipeline",
            )

    # ----------------------------------------------------------- contexts
    def install(self, ctx: ExecutionContext) -> None:
        """Install a persistent execution context (user-level, §III-C)."""
        self.contexts.append(ctx)
        if ctx.hpu_quota is not None:
            ctx._quota_sem = Resource(
                self.sim,
                min(ctx.hpu_quota, self.params.n_hpus),
                name=f"{self.node_name}.quota.{ctx.name}",
            )
        if self._sweep_clock is None and ctx.handlers.cleanup is not None:
            clock = _sweep_clocks.get(self.sim)
            if clock is None:
                clock = _sweep_clocks[self.sim] = _SweepClock()
            clock.installed += 1
            self._sweep_clock = clock
            self._sweep_key = (clock.installed, weakref.ref(self))
            self._sweep_restart()

    def match(self, pkt: Packet) -> Optional[ExecutionContext]:
        for ctx in self.contexts:
            if ctx.matches(pkt):
                return ctx
        return None

    # ------------------------------------------------------------- ingest
    def ingest(self, pkt: Packet) -> bool:
        """Offer a packet to the accelerator.

        Returns False when no context matches (the packet then takes the
        NIC's default path).  When a context matches but the accelerator
        cannot keep up (ingress queue full, §III-C), the *message* is
        denied: the header packet is NACK'd so the client retries later,
        and its remaining packets are dropped — matching the paper's
        handling of resource exhaustion (§III-B2).
        """
        ctx = self.match(pkt)
        if ctx is None:
            return False
        # Admission control is per *message* (§III-C): the decision is
        # taken on the header packet; later packets of an admitted
        # message are always processed, later packets of a denied
        # message are always dropped.
        if pkt.msg_id in self._overloaded:
            self.packets_steered += 1
            if pkt.is_completion:
                self._overloaded.discard(pkt.msg_id)
            return True
        # NOTE: retransmitted packets of a live message are deliberately
        # re-run, not dropped — forwarding policies (replication, EC,
        # log) must regenerate child streams so a downstream node that
        # lost a forwarded packet can fill its gap.  Handlers are
        # idempotent (same-address DMA, policy-level duplicate memos),
        # so re-execution only costs HPU cycles, like real retransmits.
        if (
            pkt.msg_id not in self._admitted
            and self._queued >= self.params.ingress_queue_packets
            and pkt.is_header
        ):
            self.packets_steered += 1
            if not pkt.is_completion:
                self._overloaded.add(pkt.msg_id)
            dfs = pkt.headers.get("dfs")
            reply = (dfs.reply_to if dfs is not None else None) or pkt.src
            greq = dfs.greq_id if dfs is not None else pkt.headers.get("greq_id")
            self.nacks_sent += 1
            tel = self.sim.telemetry
            if tel.enabled:
                self._handles.get(tel.metrics)["nacks"].inc()
            self.send_fn(
                Packet(
                    src=self.node_name,
                    dst=reply,
                    op="nack",
                    msg_id=pkt.msg_id,
                    seq=0,
                    nseq=1,
                    headers={"ack_for": greq, "reason": "overload"},
                    header_bytes=16,
                )
            )
            return True
        if pkt.is_header and not pkt.is_completion:
            self._admitted.add(pkt.msg_id)
        if pkt.is_completion:
            self._admitted.discard(pkt.msg_id)
        self._queued += 1
        tel = self.sim.telemetry
        if tel.enabled:
            h = self._handles.get(tel.metrics)
            h["ingested"].inc()
            h["queued"].set(self.sim.now, self._queued)
        # 1+2. packet buffer copy, then the hardware scheduler pick —
        # strictly sequential with nothing observable in between, so the
        # pipeline starts where F1 ends (same timestamp, one event).
        p = self.params
        cyc = p.cycle_ns
        size = pkt.size
        sim = self.sim
        rec = _PacketRecord(self, ctx, pkt)
        rec.l1_ns = -(-size // p.l1_copy_bytes_per_cycle) * cyc
        sim._call_at1(
            rec.f1, None,
            sim.now + (-(-size // p.pkt_buffer_bytes_per_cycle) + p.sched_cycles) * cyc,
        )
        return True

    # ------------------------------------------------------------ pipeline
    def _pipeline_front(self, ctx: ExecutionContext, pkt: Packet):
        """Post-F1 bookkeeping: run lookup/creation and the scheduler's
        cluster picks."""
        sim = self.sim
        p = self.params
        run = self._runs.get(pkt.msg_id)
        if run is None:
            # Any packet may open the run: handler-forwarded streams can
            # arrive slightly reordered (concurrent payload handlers race
            # for the upstream egress queue), so a payload packet may beat
            # its header here.  Its pipeline simply parks on ``hh_done``
            # until the header handler has run.
            cluster = self._next_cluster
            self._next_cluster = (self._next_cluster + 1) % p.n_clusters
            run = _MessageRun(sim, pkt.msg_id, ctx, cluster)
            self._runs[pkt.msg_id] = run
            if self._sweep_idle:
                self._sweep_arm(sim.now)
        if run.trace is None and pkt.trace is not None:
            run.trace = pkt.trace
        run.expected = pkt.nseq
        run.last_activity = sim.now
        # Packet-level parallelism (§II-B1): payload packets of one
        # message spread over ALL clusters' HPUs (the Fig. 16 budget
        # model assumes every HPU shares a message's packets); the
        # message's request state lives in its home cluster's L1.
        exec_cluster = self._next_cluster
        self._next_cluster = (self._next_cluster + 1) % p.n_clusters
        return run, exec_cluster

    def _payload_done(self, run: _MessageRun, pkt: Packet, t: float) -> None:
        """Record ``pkt``'s payload handler as finished at ``t``; the last
        one of the message releases the completion handler."""
        run.ph_seqs.add(pkt.seq)
        run.last_activity = t
        if (
            run.completion_seen
            and run.expected is not None
            and len(run.ph_seqs) >= run.expected
            and not run.phs_done.triggered
        ):
            run.phs_done.succeed_quiet(None)

    def _handler_end(
        self, htype: str, run: _MessageRun, cluster: _Cluster, cost, t0: float, t1: float
    ) -> None:
        """Statistics and telemetry of a handler that computed on
        ``cluster`` from ``t0`` to ``t1``."""
        self._record_stats(htype, run.ctx.name, t1 - t0, cost.instructions)
        tel = self.sim.telemetry
        if tel.enabled:
            dur = t1 - t0
            tel.span(
                f"{htype}:{run.ctx.name} m{run.msg_id}",
                pid=f"pspin:{self.node_name}",
                tid=f"cluster{cluster.idx}",
                t0=t0,
                t1=t1,
                cat="hpu",
                trace=run.trace,
                args={"instructions": cost.instructions, "handler": htype},
                phase="hpu",
            )
            h = self._handles.get(tel.metrics)
            h["busy"].inc(dur)
            inv = h["inv"].get(htype)
            if inv is None:
                m = tel.metrics
                # miss path runs once per handler type; the handle is
                # cached in the HandleCache dict itself
                inv = h["inv"][htype] = m.counter(
                    f"pspin.{self.node_name}.handler.{htype}.invocations"
                )
                h["lat"][htype] = m.histogram(
                    f"pspin.{self.node_name}.handler.{htype}.latency_ns"
                )
            inv.inc()
            h["lat"][htype].observe(dur)
            h["active"][cluster.idx].set(t1, cluster.active)

    def _finish(self, run: _MessageRun) -> None:
        run.finished = True
        run.api = None  # the api points back at the run: free both by refcount
        self._runs.pop(run.msg_id, None)

    # ------------------------------------------------------------- cleanup
    #
    # Cleanup handlers fire for messages inactive beyond the timeout
    # (§VII: clients failing mid-write leave dangling state).  The sweep
    # checks on a grid of period P = timeout / 2 that starts when the
    # first cleanup handler is installed and restarts where each cleanup
    # batch ends.  Only grid points at which some run could be stale
    # are scheduled, so an idle NIC costs no events; the points skipped
    # are exactly those whose check would have found nothing.

    def _sweep_arm(self, oldest: float) -> None:
        """Wake at the first grid point ``G`` past the last one visited
        with ``G - timeout >= oldest`` (the grid is walked by repeated
        addition, so ``G`` is bit-identical to a tick-every-P timer)."""
        timeout = self.params.cleanup_timeout_ns
        period = timeout / 2
        t = self._sweep_t + period
        while t - timeout < oldest:
            t += period
        self._sweep_idle = False
        due = self._sweep_clock.due
        if t in due:
            due[t].append(self._sweep_key)
        else:
            due[t] = [self._sweep_key]
            self.sim._call_at1(self._sweep_clock.fire, t, t)

    def _sweep_tick(self) -> None:
        """A scheduled grid point: clean up every stale run, or re-arm
        for the oldest remaining one."""
        sim = self.sim
        self._sweep_t = now = sim.now
        deadline = now - self.params.cleanup_timeout_ns
        stale = []
        oldest = _INF
        for run in self._runs.values():
            la = run.last_activity
            if la <= deadline:
                stale.append(run)
            elif la < oldest:
                oldest = la
        if stale:
            sim.process(self._cleanup_batch(stale), name=f"{self.node_name}.cleanup")
        elif self._runs:
            self._sweep_arm(oldest)
        else:
            self._sweep_idle = True  # the next run creation arms

    def _cleanup_batch(self, stale: List[_MessageRun]):
        for run in stale:
            yield from self._exec_cleanup(run)
        self._sweep_restart()

    def _sweep_restart(self) -> None:
        """Move the grid origin to now and arm for the runs in flight."""
        self._sweep_t = self.sim.now
        self._sweep_idle = True
        if self._runs:
            self._sweep_arm(min(run.last_activity for run in self._runs.values()))

    def _exec_cleanup(self, run: _MessageRun):
        handler = run.ctx.handlers.cleanup
        if handler is None:
            self._finish(run)
            return
        sim = self.sim
        cluster = self.clusters[run.cluster]
        writers = self._writers
        mid = run.msg_id
        req = cluster.hpus.request()
        yield req
        t0 = sim.now
        writers[mid] = writers.get(mid, 0) + 1
        try:
            cost = handler.cost(run.task, None)
            yield sim.timeout(cost.compute_ns(self.params.freq_ghz))
            gen = handler.run(HandlerApi(self, run), run.task, None)
            if gen is not None:
                yield from gen
        finally:
            n = writers.pop(mid) - 1
            if n:
                writers[mid] = n
            cluster.hpus.release(req)
        self._record_stats("cleanup", run.ctx.name, sim.now - t0, cost.instructions)
        # Release every pipeline parked on this run's gates, or packets
        # that arrived before the sweep stay blocked forever.
        if not run.hh_done.triggered:
            run.hh_done.succeed_quiet(None)
        if not run.phs_done.triggered:
            run.phs_done.succeed_quiet(None)
        self._finish(run)

    # --------------------------------------------------------------- stats
    def _record_stats(
        self, htype: str, ctx_name: str, duration_ns: float, instructions: int
    ) -> None:
        key = (htype, ctx_name)
        st = self._stats_memo.get(key)
        if st is None:
            st = self._stats_memo[key] = self.stats[f"{htype}:{ctx_name}"]
        st.record(duration_ns, instructions)

    @property
    def in_flight_messages(self) -> int:
        return len(self._runs)
