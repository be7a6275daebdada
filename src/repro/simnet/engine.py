"""Deterministic discrete-event simulation kernel.

This is the substrate that replaces the paper's use of the Structural
Simulation Toolkit (SST).  It is a compact, generator-coroutine based
engine in the style of SimPy, specialised for the needs of packet-level
network simulation:

* time is measured in **nanoseconds** (floats);
* event ordering is fully deterministic: ties are broken by a
  monotonically increasing sequence number, so the same program produces
  the same trace on every run;
* processes are plain Python generators that ``yield`` *waitables*
  (:class:`Timeout`, :class:`Event`, other :class:`Process` objects, or
  the :class:`AllOf` combinator) and run until they return: nothing
  preempts a process, and a failed event is the one way an error
  reaches it;
* an effect that only writes state nobody reads at its instant (a DMA
  landing in host memory, a packet joining a busy egress queue) may be a
  *deferred entry* (:class:`Deferrer`): it reserves the heap rank its
  push would have had and is applied, without a dispatch, by whatever
  reads that state next.  Events dispatched therefore differ from
  effects applied; ``profile()`` reports both.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def proc(name, delay):
...     yield sim.timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.process(proc("a", 5.0))
>>> _ = sim.process(proc("b", 3.0))
>>> sim.run()
>>> log
[(3.0, 'b'), (5.0, 'a')]
"""

from __future__ import annotations

import heapq
import time
from collections.abc import Generator
from typing import Any, Callable, Iterable, NoReturn, Optional

from ..telemetry import Telemetry

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "Simulator",
    "SimulationError",
    "Deferrer",
]


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; it is later either :meth:`succeed`-ed with
    a value or :meth:`fail`-ed with an exception.  Callbacks registered
    before triggering run when the event fires (in registration order).

    ``callbacks`` starts as ``None`` and is materialized on the first
    :meth:`add_callback` — most events in a packet simulation have
    exactly zero or one waiter, so the empty-list allocation per event
    is pure overhead on the hot path.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "triggered", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = None
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self.triggered = False
        self.name = name

    # -- state ---------------------------------------------------------
    @property
    def value(self) -> Any:
        return self._value

    @property
    def ok(self) -> bool:
        return self.triggered and self._exc is None

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Mark the event successful and schedule its callbacks *now*."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self._value = value
        sim = self.sim
        sim._seq += 1
        heapq.heappush(sim._heap, (sim.now, sim._seq, self))
        return self

    def succeed_quiet(self, value: Any = None) -> "Event":
        """Succeed without a kernel dispatch when nothing is attached yet.

        With no callbacks registered there is nothing for the dispatch to
        run: the event is marked already-dispatched, so later waiters are
        rescheduled through ``_call_soon1`` exactly as they would be after
        a real dispatch.  With callbacks attached this is :meth:`succeed`,
        its push inlined.  Fire-and-forget completions (DMA posts whose
        event is only inspected later, processes nobody joins) save one
        heap event each.
        """
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self._value = value
        if self.callbacks:
            sim = self.sim
            sim._seq += 1
            heapq.heappush(sim._heap, (sim.now, sim._seq, self))
        else:
            self.callbacks = _DISPATCHED
        return self

    def succeed_inline(self, value: Any = None) -> "Event":
        """Succeed and run the attached callbacks now, in the caller's
        dispatch, instead of from a heap entry of their own.

        For hand-offs with nothing observable between the trigger and
        its waiters (a CQ poll waking the application, an outcome
        adapter): the waiters run at the same instant, one kernel
        dispatch earlier.  Later waiters are rescheduled through
        ``_call_soon1`` as after any dispatch.
        """
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self._value = value
        callbacks = self.callbacks
        self.callbacks = _DISPATCHED
        if callbacks:
            for cb in callbacks:
                cb(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Mark the event failed; waiters will see ``exc`` raised."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self._exc = exc
        sim = self.sim
        sim._seq += 1
        heapq.heappush(sim._heap, (sim.now, sim._seq, self))
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        cbs = self.callbacks
        if cbs is _DISPATCHED:
            # Already fired: run on next kernel step to keep ordering sane.
            self.sim._call_soon1(fn, self)
        elif cbs is None:
            self.callbacks = [fn]
        else:
            cbs.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self.triggered:
            state = "ok" if self._exc is None else "failed"
        return f"<{type(self).__name__} {self.name!r} {state}>"


_DISPATCHED: list = []  # sentinel assigned to Event.callbacks after dispatch

_INF = float("inf")
# why Simulator._loop stopped
_TRIGGERED, _DRAINED, _BOUND = "triggered", "drained", "bound"


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    The constructor is fully inlined (no ``super().__init__`` call and
    no per-instance name formatting): timeouts
    are the single most-allocated object in a packet simulation, and the
    old ``f"timeout({delay})"`` name alone cost more than the heap push.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.callbacks = None
        self._value = value
        self._exc = None
        self.triggered = True  # a timeout cannot be cancelled or re-triggered
        self.name = "timeout"
        self.delay = delay
        sim._seq += 1
        heapq.heappush(sim._heap, (sim.now + delay, sim._seq, self))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Timeout delay={self.delay}>"


class Process(Event):
    """A running generator; completes when the generator returns.

    The generator's ``return`` value becomes the process's event value.
    A successful finish is quiet (:meth:`Event.succeed_quiet`): most
    processes are never joined, so it costs a heap event only when a
    waiter is already attached.  Exceptions escaping the generator fail
    the process event; if nobody waits on the process, the exception is
    re-raised by :meth:`Simulator.run` (crashes are never silently
    swallowed).
    """

    __slots__ = ("gen", "_observed")

    def __init__(
        self, sim: "Simulator", gen: Generator, name: str = "",
        at: Optional[float] = None,
    ) -> None:
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        self.gen = gen
        self._observed = False
        if at is None:
            sim._call_soon1(self._resume, None)
        else:
            if at < sim.now:
                raise SimulationError(
                    f"process {self.name!r} cannot start at {at} (now={sim.now})"
                )
            sim._call_at1(self._resume, None, at)

    # -- public --------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        return not self.triggered

    # -- kernel --------------------------------------------------------
    def _resume(self, trigger: Optional[Event]) -> None:
        try:
            if trigger is not None and trigger._exc is not None:
                nxt = self.gen.throw(trigger._exc)
            else:
                value = trigger._value if trigger is not None else None
                nxt = self.gen.send(value)
        except StopIteration as stop:
            self.succeed_quiet(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via event
            self.fail(exc)
            return
        self._wait_on(nxt)

    def _wait_on(self, target: Any) -> None:
        if not isinstance(target, Event):
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded non-event {target!r}"
                )
            )
            return
        if target.sim is not self.sim:
            self.fail(SimulationError("yielded event belongs to another simulator"))
            return
        # add_callback, inlined (one process resume per event on the hot path)
        cbs = target.callbacks
        if cbs is _DISPATCHED:
            self.sim._call_soon1(self._resume, target)
        elif cbs is None:
            target.callbacks = [self._resume]
        else:
            cbs.append(self._resume)


class AllOf(Event):
    """Fires when every child event has fired; value is list of values.

    If any child fails, the condition fails with that child's exception.
    """

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim, name="all_of")
        self.events = list(events)
        self._pending = 0
        if not self.events:
            self.succeed([])
            return
        for ev in self.events:
            self._pending += 1
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if ev.exception is not None:
            self.fail(ev.exception)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([e.value for e in self.events])


class Deferrer:
    """Owner of deferred heap entries: effects kept off the heap.

    A scheduler that would push ``fn`` at ``t`` and knows nothing reads
    the state ``fn`` mutates until then records ``[t, seq, armed, ...]``
    in ``_dq`` instead (:meth:`_defer`): ``seq`` is reserved with
    ``sim._seq += 1``, so the record holds the heap rank ``(t, seq)``
    the push would have had and every other entry keeps its seq.  Every
    reader of the owner's state first calls :meth:`_settle`, which
    applies, in rank order, each record ranked ``<= (now, seq being
    dispatched)``: exactly the entries that would have been dispatched
    by then.  A waiter on one effect arms it (``armed`` goes from None
    to True or to the waiter's event) and pushes it at its reserved
    rank, where its dispatch settles it.  Before the loop would drain or
    stop at a bound it materializes the owner's records the same way
    (:meth:`_materialize`), so ``now``, ``peek()`` and every run end
    where they would with real entries.

    Subclasses set ``_dsim`` and a ``_dq`` deque and define
    ``_apply(rec)``; records are appended with nondecreasing ``t`` (seqs
    only grow), so ``_dq`` is in rank order.
    """

    _dsim: "Simulator"
    _dq: Any
    #: registered in ``sim._deferrers`` (it has unarmed records)
    _dreg = False

    def _defer(self, rec: list) -> None:
        """Queue ``rec`` (its rank already reserved, its instant no
        earlier than the last record's) and register the owner for
        materialization."""
        self._dq.append(rec)
        if not self._dreg:
            self._dreg = True
            self._dsim._deferrers.append(self)

    def _apply(self, rec: list) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _settle(self) -> None:
        """Apply every record ranked ``<= (now, seq being dispatched)``."""
        sim = self._dsim
        dq = self._dq
        now = sim.now
        dseq = sim._dseq
        san = sim.sanitizer
        n = 0
        while dq:
            rec = dq[0]
            t = rec[0]
            if t > now or (t == now and rec[1] > dseq):
                break
            dq.popleft()
            if rec[2] is None:
                # applied without a dispatch: its reserved seq never pops
                n += 1
                if san is not None:
                    san._origins.pop(rec[1], None)
            self._apply(rec)
        sim.deferred_applied += n

    def _fire(self, rec: list) -> None:
        """Dispatch of an armed record: apply it (and everything ranked
        before it), then wake its waiter, if any."""
        self._settle()
        ev = rec[2]
        if ev is not True:
            ev.succeed_quiet(None)

    def _arm(self, rec: list, waiter: Any = True) -> None:
        """Push ``rec`` (not yet due) at its reserved rank; its dispatch
        succeeds ``waiter`` if that is an event."""
        if rec[2] is None:
            heapq.heappush(self._dsim._heap, (rec[0], rec[1], self._fire, rec))
        rec[2] = waiter

    def _materialize(self) -> None:
        self._dreg = False
        self._settle()
        for rec in self._dq:
            if rec[2] is None:
                self._arm(rec)

    def _pending(self) -> list:
        """Records still off the heap and not yet due."""
        self._settle()
        return [rec for rec in self._dq if rec[2] is None]


class Simulator:
    """The event loop.  Time unit: nanoseconds."""

    def __init__(self, sanitize: bool = False) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, object]] = []
        self._seq = 0
        self._running = False
        #: per-simulation observability sink (disabled by default; flip
        #: ``sim.telemetry.enabled`` to start recording spans/metrics)
        self.telemetry = Telemetry(enabled=False)
        #: runtime sanitizer (see repro.simsan); None = off, zero cost.
        #: When set, its per-pop hook dispatches every heap entry and the
        #: resource primitives record acquisition backtraces.
        self.sanitizer = None
        self._hook: Optional[Callable[[tuple], None]] = None
        if sanitize:
            from ..simsan import Sanitizer

            self.sanitizer = Sanitizer(self)
            self._hook = self.sanitizer._step
        #: stop event of an unbounded run(): never triggered
        self._never = Event(self, "never")
        #: fault oracle (see repro.faults.install_faults); None = no faults
        self.faults = None
        # -- self-profile (always on: integer bookkeeping only) --------
        self.events_dispatched = 0
        self._heap_high_water = 0
        self._wall_s = 0.0
        # -- deferred entries (see Deferrer) ----------------------------
        #: seq of the entry being (or last) dispatched
        self._dseq = 0
        #: owners with records off the heap
        self._deferrers: list = []
        #: deferred effects applied without a dispatch
        self.deferred_applied = 0

    # -- construction helpers ------------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(
        self, gen: Generator, name: str = "", at: Optional[float] = None
    ) -> Process:
        """Run ``gen`` as a process.  Its first step runs now, or at the
        ABSOLUTE time ``at`` (>= now): a process whose first act would
        be a sleep starts late instead, from one heap entry."""
        if not isinstance(gen, Generator):
            raise SimulationError(
                f"Simulator.process() needs a generator, got {type(gen).__name__}"
            )
        return Process(self, gen, name=name, at=at)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling -----------------------------------------------------
    # Heap entries are ``(t, seq, event)`` or ``(t, seq, fn, arg)``;
    # ``seq`` is unique, so the fourth element never participates in
    # tuple comparison.  The 4-tuple form lets hot callers schedule a
    # bound method with one argument without allocating a closure per
    # call.
    def _call_soon1(self, fn: Callable[[Any], None], arg: Any, delay: float = 0.0) -> None:
        """Schedule ``fn(arg)`` ``delay`` ns from now."""
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn, arg))

    def _call_at1(self, fn: Callable[[Any], None], arg: Any, t: float) -> None:
        """Schedule ``fn(arg)`` at ABSOLUTE simulated time ``t``.

        Used where an instant is computed ahead of its push (a fused
        arrival at tx-done, a packet record's next stage, a deferred
        entry armed at its reserved rank): pushing ``t`` itself keeps
        the fire time bit-identical to a chain of relative delays,
        whereas the delay form ``now + (t - now)`` can differ in the
        last ulp.
        """
        self._seq += 1
        heapq.heappush(self._heap, (t, self._seq, fn, arg))

    def timeout_at(self, t: float, value: Any = None) -> Event:
        """An event that fires at ABSOLUTE simulated time ``t`` (>= now).

        The absolute-time analogue of :meth:`timeout`, with the same
        bit-exactness rationale as :meth:`_call_at1`.
        """
        if t < self.now:
            raise SimulationError(f"timeout_at({t}) is in the past (now={self.now})")
        ev = Event(self, "timeout_at")
        ev.triggered = True  # like Timeout: cannot be cancelled/re-triggered
        ev._value = value
        self._seq += 1
        heapq.heappush(self._heap, (t, self._seq, ev))
        return ev

    @property
    def last_seq(self) -> int:
        """Sequence number of the latest heap push.  Read right after a
        push, it is that entry's rank among entries due at the same
        instant (lower dispatches first)."""
        return self._seq

    # -- running ---------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run until the event heap drains or the clock would pass ``until``.

        Events scheduled at exactly ``until`` still fire; the clock then
        stops at ``until``.  Returns the final simulation time.  A bound
        in the past raises :class:`SimulationError` (the clock never moves
        backwards).  Unhandled process failures are re-raised here.
        Note: periodic service processes (the DFS heartbeat monitor) can
        keep the heap non-empty forever — use :meth:`run_until_event` to
        wait for a specific outcome.  The PsPIN cleanup sweeper is lazy:
        it schedules nothing while its accelerator has no message in
        flight.
        """
        if until is None:
            self._loop(self._never, _INF)
            return self.now
        if until < self.now:
            raise SimulationError(f"run(until={until}) is in the past (now={self.now})")
        self._loop(self._never, until)
        self.now = until
        return until

    def run_until_event(self, ev: Event, limit: Optional[float] = None) -> Any:
        """Run until ``ev`` fires; return its value (or raise its error).

        ``limit`` bounds simulated time; exceeding it raises
        :class:`SimulationError`, as does a drained heap (deadlock).
        """
        why = self._loop(ev, _INF if limit is None else limit)
        if why == _DRAINED:
            raise SimulationError(
                f"deadlock: event {ev.name!r} can never fire (heap empty)"
            )
        if why == _BOUND:
            raise SimulationError(f"event {ev.name!r} did not fire by t={limit} ns")
        if ev.exception is not None:
            raise ev.exception
        return ev.value

    def _loop(self, stop: Event, bound: float) -> str:
        """Pop and dispatch until ``stop`` triggers, the heap drains, or
        the next entry lies past ``bound``; return which of the three
        (``_TRIGGERED``, ``_DRAINED``, ``_BOUND``) ended the run.

        The dispatch body is inlined: one method call per event is
        measurable at millions of events per run.  High-water and
        dispatch counters run on locals and are written back on exit for
        the same reason.  With a sanitizer attached, ``self._hook``
        dispatches each popped entry instead.  The seq being dispatched
        is kept in ``_dseq`` for :meth:`Deferrer._settle`; before the
        heap drains or its head passes ``bound``, deferred records are
        materialized.  An Event popped with no
        callbacks and a failure re-raises: crashes are never silently
        swallowed (an unobserved failed Process included).
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        self._running = True
        wall0 = time.perf_counter()  # simlint: disable=SIM101 -- kernel self-profile
        heap = self._heap
        pop = heapq.heappop
        hook = self._hook
        hw = self._heap_high_water
        ndisp = self.events_dispatched
        try:
            while not stop.triggered:
                if not heap or heap[0][0] > bound:
                    if self._deferrers:
                        # deferred records left: push them at their
                        # ranks and run on, as real entries would
                        self._materialize()
                        continue
                    return _DRAINED if not heap else _BOUND
                entry = pop(heap)
                n = len(heap)
                if n >= hw:
                    hw = n + 1
                t = entry[0]
                if t < self.now - 1e-9:
                    self._time_went_backwards(entry)
                self.now = t
                self._dseq = entry[1]
                ndisp += 1
                if hook is not None:
                    hook(entry)
                    continue
                item = entry[2]
                if isinstance(item, Event):
                    callbacks = item.callbacks
                    item.callbacks = _DISPATCHED
                    if callbacks:
                        for cb in callbacks:
                            cb(item)
                    elif item._exc is not None:
                        if not isinstance(item, Process) or not item._observed:
                            raise item._exc
                else:
                    item(entry[3])
            return _TRIGGERED
        finally:
            self._heap_high_water = hw
            self.events_dispatched = ndisp
            self._running = False
            self._wall_s += time.perf_counter() - wall0  # simlint: disable=SIM101 -- kernel self-profile

    def _time_went_backwards(self, entry: tuple) -> NoReturn:
        if self.sanitizer is not None:
            self.sanitizer.record_rewind(entry)
        raise SimulationError(
            f"time went backwards: entry at t={entry[0]} popped at now={self.now}"
        )

    def run_until_complete(self, proc: Process, until: Optional[float] = None) -> Any:
        """Run until ``proc`` finishes; return its value or raise its error."""
        proc._observed = True
        return self.run_until_event(proc, limit=until)

    def _materialize(self) -> None:
        """Push every deferred record not yet due at its reserved rank."""
        owners = self._deferrers
        self._deferrers = []
        for owner in owners:
            owner._materialize()

    def peek(self) -> float:
        """Time of the next scheduled item (a deferred one included), or
        +inf if there is none."""
        t = self._heap[0][0] if self._heap else _INF
        for owner in self._deferrers:
            pending = owner._pending()
            if pending and pending[0][0] < t:
                t = pending[0][0]
        return t

    # -- self-profile -----------------------------------------------------
    @property
    def heap_high_water(self) -> int:
        return max(self._heap_high_water, len(self._heap))

    @property
    def wall_seconds(self) -> float:
        """Wall-clock time spent inside run()/run_until_event()."""
        return self._wall_s

    def profile(self) -> dict:
        """Simulator self-profile: tracks the *simulator's* performance
        across PRs (events dispatched, heap high-water mark, wall-clock
        per simulated nanosecond).  ``deferred_applied`` counts effects
        applied without a dispatch (see :class:`Deferrer`): events
        dispatched are not effects applied."""
        wall_ns = self._wall_s * 1e9
        return {
            "events_dispatched": self.events_dispatched,
            "deferred_applied": self.deferred_applied,
            "heap_high_water": self.heap_high_water,
            "sim_ns": self.now,
            "wall_s": self._wall_s,
            "wall_ns_per_sim_ns": wall_ns / self.now if self.now > 0 else 0.0,
            "events_per_wall_s": (
                self.events_dispatched / self._wall_s if self._wall_s > 0 else 0.0
            ),
        }
