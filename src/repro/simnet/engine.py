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
  :class:`AllOf`/:class:`AnyOf` combinators).

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
from typing import Any, Callable, Generator, Iterable, NoReturn, Optional

from ..telemetry import Telemetry

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Simulator",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process when it is interrupted.

    The ``cause`` attribute carries the interrupter-supplied reason.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


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

    __slots__ = ("sim", "callbacks", "_value", "_exc", "triggered", "name", "_abandon")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = None
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self.triggered = False
        self.name = name
        #: optional resource-cleanup hook: set by Resource/Store/Container
        #: when this event is queued as a waiter, invoked by
        #: Process.interrupt() when the waiter is detached untriggered so
        #: the slot/credit is never granted to a dead process
        self._abandon: Optional[Callable[[], None]] = None

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
        a real dispatch.  With callbacks attached this degrades to
        :meth:`succeed`.  Fire-and-forget completions (DMA posts whose
        event is only inspected later) save one heap event each.
        """
        if self.callbacks:
            return self.succeed(value)
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self._value = value
        self.callbacks = _DISPATCHED
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

    def _dispatched(self) -> bool:
        return self.triggered and self.callbacks is _DISPATCHED

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

    The constructor is fully inlined (no ``super().__init__`` /
    ``_schedule_event`` calls, no per-instance name formatting): timeouts
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
        self._abandon = None
        self.delay = delay
        sim._seq += 1
        heapq.heappush(sim._heap, (sim.now + delay, sim._seq, self))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Timeout delay={self.delay}>"


class Process(Event):
    """A running generator; completes when the generator returns.

    The generator's ``return`` value becomes the process's event value.
    Exceptions escaping the generator fail the process event; if nobody
    waits on the process, the exception is re-raised by
    :meth:`Simulator.run` (crashes are never silently swallowed).
    """

    __slots__ = ("gen", "_waiting_on", "_observed")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = "") -> None:
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        self.gen = gen
        self._waiting_on: Optional[Event] = None
        self._observed = False
        sim._call_soon1(self._resume, None)

    # -- public --------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the next step."""
        if self.triggered:
            return
        target = self._waiting_on
        if target is not None and not target.triggered:
            # Detach from what we were waiting on; the stale callback
            # checks identity before resuming.
            self._waiting_on = None
            abandon = target._abandon
            if abandon is not None:
                # Withdraw the queued resource claim so it is never
                # granted to this (now dead) waiter.
                target._abandon = None
                abandon()
        self.sim._call_soon(lambda: self._throw(Interrupt(cause)))

    # -- kernel --------------------------------------------------------
    def _resume(self, trigger: Optional[Event]) -> None:
        if self.triggered:
            return
        if trigger is not None and trigger is not self._waiting_on:
            return  # stale wake-up after an interrupt
        self._waiting_on = None
        try:
            if trigger is not None and trigger._exc is not None:
                nxt = self.gen.throw(trigger._exc)
            else:
                value = trigger._value if trigger is not None else None
                nxt = self.gen.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via event
            self.fail(exc)
            return
        self._wait_on(nxt)

    def _throw(self, exc: BaseException) -> None:
        if self.triggered:
            return
        self._waiting_on = None
        try:
            nxt = self.gen.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as err:  # noqa: BLE001
            self.fail(err)
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
        self._waiting_on = target
        # add_callback, inlined (one process resume per event on the hot path)
        cbs = target.callbacks
        if cbs is _DISPATCHED:
            self.sim._call_soon1(self._resume, target)
        elif cbs is None:
            target.callbacks = [self._resume]
        else:
            cbs.append(self._resume)


class _Condition(Event):
    """Base for AllOf / AnyOf combinators."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event], name: str) -> None:
        super().__init__(sim, name=name)
        self.events = list(events)
        self._pending = 0
        if not self.events:
            self.succeed([])
            return
        for ev in self.events:
            self._pending += 1
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every child event has fired; value is list of values.

    If any child fails, the condition fails with that child's exception.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim, events, name="all_of")

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if ev.exception is not None:
            self.fail(ev.exception)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([e.value for e in self.events])


class AnyOf(_Condition):
    """Fires when the first child event fires; value is that event."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim, events, name="any_of")

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if ev.exception is not None:
            self.fail(ev.exception)
            return
        self.succeed(ev)


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
        #: packet-train coalescing switch (see repro.simnet.link): ports
        #: may collapse an uncontended multi-packet burst into one train
        #: event with precomputed per-packet timestamps.  Purely a
        #: simulator fast path — timestamps are byte-identical either way.
        self.coalescing = True
        # -- self-profile (always on: integer bookkeeping only) --------
        self.events_dispatched = 0
        self._heap_high_water = 0
        self._wall_s = 0.0

    # -- construction helpers ------------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: Generator, name: str = "") -> Process:
        if not isinstance(gen, Generator):
            raise SimulationError(
                f"Simulator.process() needs a generator, got {type(gen).__name__}"
            )
        return Process(self, gen, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling -----------------------------------------------------
    # Heap entries are ``(time, seq, item)`` or ``(time, seq, fn, arg)``;
    # ``seq`` is unique, so the fourth element never participates in
    # tuple comparison.  The 4-tuple form lets hot callers schedule a
    # bound method with one argument without allocating a closure per
    # call (the old ``lambda: fn(arg)`` pattern).
    def _schedule_event(self, ev: Event, delay: float = 0.0) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, ev))

    def _call_soon(self, fn: Callable[[], None], delay: float = 0.0) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn))

    def _call_soon1(self, fn: Callable[[Any], None], arg: Any, delay: float = 0.0) -> None:
        """Schedule ``fn(arg)`` — the closure-free flavour of _call_soon."""
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn, arg))

    def _call_at1(self, fn: Callable[[Any], None], arg: Any, t: float) -> None:
        """Schedule ``fn(arg)`` at ABSOLUTE simulated time ``t``.

        Used by the packet-train fast path, whose per-packet timestamps
        are precomputed arrays: pushing ``t`` itself keeps the fire time
        bit-identical to the per-packet slow path, whereas the delay form
        ``now + (t - now)`` can differ in the last ulp.
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

    # -- running ---------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run until the event heap drains or the clock would pass ``until``.

        Events scheduled at exactly ``until`` still fire; the clock then
        stops at ``until``.  Returns the final simulation time.  A bound
        in the past raises :class:`SimulationError` (the clock never moves
        backwards).  Unhandled process failures are re-raised here.
        Note: background service processes (egress servers, sweepers) can
        keep the heap non-empty forever — use :meth:`run_until_event` to
        wait for a specific outcome.
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
        dispatches each popped entry instead.  An Event popped with no
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
                if not heap:
                    return _DRAINED
                if heap[0][0] > bound:
                    return _BOUND
                entry = pop(heap)
                n = len(heap)
                if n >= hw:
                    hw = n + 1
                t = entry[0]
                if t < self.now - 1e-9:
                    self._time_went_backwards(entry)
                self.now = t
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
                elif len(entry) == 3:
                    item()
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

    def peek(self) -> float:
        """Time of the next scheduled item, or +inf if the heap is empty."""
        return self._heap[0][0] if self._heap else float("inf")

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
        per simulated nanosecond)."""
        wall_ns = self._wall_s * 1e9
        return {
            "events_dispatched": self.events_dispatched,
            "heap_high_water": self.heap_high_water,
            "sim_ns": self.now,
            "wall_s": self._wall_s,
            "wall_ns_per_sim_ns": wall_ns / self.now if self.now > 0 else 0.0,
            "events_per_wall_s": (
                self.events_dispatched / self._wall_s if self._wall_s > 0 else 0.0
            ),
        }
