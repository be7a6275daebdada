"""Shared-resource primitives for the simulation kernel.

These mirror the classic SimPy resource set, trimmed to what the network
and NIC models need:

* :class:`Resource` — ``capacity`` identical servers with a FIFO queue
  (used for HPU pools, CPU cores, DMA engines);
* :class:`Store` — an unbounded or bounded FIFO of Python objects (used
  for egress queues, RPC command queues);
* :class:`Container` — a counted pool of indistinguishable units (used
  for NIC memory accounting and egress credits).

All wait operations return :class:`~repro.simnet.engine.Event` objects,
so processes simply ``yield`` them.  A claim, once made, stays queued
until it is granted: nothing withdraws a waiter, since nothing in the
kernel preempts a process.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .engine import Event, SimulationError, Simulator

__all__ = ["Request", "Resource", "Store", "Container"]


class Request(Event):
    """A pending or granted claim on a :class:`Resource`."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.sim, name=resource._req_name)
        self.resource = resource

    def release(self) -> None:
        self.resource.release(self)


class Resource:
    """``capacity`` identical servers with FIFO granting.

    Usage::

        req = res.request()
        yield req          # or: if not req.triggered: yield req
        ...critical section...
        res.release(req)

    A callback chain takes a slot without building a :class:`Request`:
    ``acquire(holder, wake)`` grants ``holder`` a free slot at once
    (True), or queues ``wake``, a bound method of ``holder``, and
    returns False; ``release`` then grants the slot with one
    ``_call_soon1(wake, None)``, pushed where a queued request's
    ``succeed`` pushes its grant.  ``users`` holds the slot holders
    (requests or callback holders) and ``queue`` the waiters (requests
    or ``wake`` callbacks), in one FIFO.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._req_name = f"req({name})"  # shared by all Requests (hot path)
        self.users: list[Any] = []
        self.queue: Deque[Any] = deque()
        # occupancy bookkeeping for utilisation statistics
        self._busy_time = 0.0
        self._last_change = 0.0
        san = sim.sanitizer
        if san is not None:
            san.adopt("resource", self)

    # -- API -------------------------------------------------------------
    def request(self) -> Request:
        req = Request(self)
        if self.acquire(req, req):
            # Quiet grant: nothing is attached yet, so no dispatch is
            # needed.  A caller that yields the request resumes through
            # one ``_call_soon1`` pushed at the yield; one that checks
            # ``triggered`` can carry on without waiting at all.
            req.succeed_quiet(None)
        return req

    def acquire(self, holder: Any, wake: Any) -> bool:
        """Take a free slot for ``holder`` now (True), or queue ``wake``
        (False): a :class:`Request` (``holder`` itself), granted by its
        ``succeed``, or a bound method of ``holder``, pushed with
        ``_call_soon1(wake, None)`` when a slot frees."""
        users = self.users
        san = self.sim.sanitizer
        if len(users) < self.capacity:
            self._account()
            users.append(holder)
            if san is not None:
                san.claim("resource-slot", (id(self), id(holder)), self.name)
            return True
        self.queue.append(wake)
        if san is not None:
            san.claim("resource-wait", (id(self), id(wake)), self.name)
        return False

    def release(self, holder: Any) -> None:
        """Give back ``holder``'s slot and grant it to the first waiter."""
        users = self.users
        if holder not in users:
            raise SimulationError(f"release of request not holding {self.name!r}")
        self._account()
        users.remove(holder)
        san = self.sim.sanitizer
        if san is not None:
            san.retire("resource-slot", (id(self), id(holder)))
        if self.queue:
            wake = self.queue.popleft()
            nxt = wake if isinstance(wake, Request) else wake.__self__
            users.append(nxt)
            if san is not None:
                san.retire("resource-wait", (id(self), id(wake)))
                san.claim("resource-slot", (id(self), id(nxt)), self.name)
            if nxt is wake:
                wake.succeed(None)
            else:
                self.sim._call_soon1(wake, None)

    # -- stats -------------------------------------------------------------
    def _account(self) -> None:
        now = self.sim.now
        self._busy_time += len(self.users) * (now - self._last_change)
        self._last_change = now

    def utilisation(self) -> float:
        """Mean busy servers per unit time since t=0, divided by capacity."""
        self._account()
        if self.sim.now <= 0:
            return 0.0
        return self._busy_time / (self.sim.now * self.capacity)

    @property
    def count(self) -> int:
        return len(self.users)


class Store:
    """FIFO store of items with optional capacity bound.

    ``put`` blocks when the store is full; ``get`` blocks when empty.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: Optional[int] = None,
        name: str = "store",
    ) -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError("store capacity must be >= 1 or None")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        # event names formatted once, not per put/get (hot path)
        self._put_name = f"put({name})"
        self._get_name = f"get({name})"
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()
        self._peak = 0
        san = sim.sanitizer
        if san is not None:
            san.adopt("store", self)

    def put(self, item: Any) -> Event:
        ev = Event(self.sim, name=self._put_name)
        san = self.sim.sanitizer
        if self._getters:
            getter = self._getters.popleft()
            if san is not None:
                san.retire("store-wait", id(getter))
            getter.succeed(item)
            ev.succeed(None)
        elif self.capacity is None or len(self.items) < self.capacity:
            self.items.append(item)
            self._peak = max(self._peak, len(self.items))
            ev.succeed(None)
        else:
            self._putters.append((ev, item))
            if san is not None:
                san.claim("store-wait", id(ev), self.name)
        return ev

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when the store is full."""
        if self._getters:
            getter = self._getters.popleft()
            san = self.sim.sanitizer
            if san is not None:
                san.retire("store-wait", id(getter))
            getter.succeed(item)
            return True
        if self.capacity is not None and len(self.items) >= self.capacity:
            return False
        self.items.append(item)
        self._peak = max(self._peak, len(self.items))
        return True

    def get(self) -> Event:
        ev = Event(self.sim, name=self._get_name)
        if self.items:
            item = self.items.popleft()
            self._admit_putter()
            ev.succeed(item)
        else:
            self._getters.append(ev)
            san = self.sim.sanitizer
            if san is not None:
                san.claim("store-wait", id(ev), self.name)
        return ev

    def _admit_putter(self) -> None:
        if self._putters:
            pev, pitem = self._putters.popleft()
            self.items.append(pitem)
            self._peak = max(self._peak, len(self.items))
            san = self.sim.sanitizer
            if san is not None:
                san.retire("store-wait", id(pev))
            pev.succeed(None)

    def __len__(self) -> int:
        return len(self.items)

    @property
    def peak(self) -> int:
        return self._peak


class Container:
    """A counted pool of units (credits, bytes of NIC memory, ...)."""

    def __init__(
        self,
        sim: Simulator,
        capacity: float,
        init: Optional[float] = None,
        name: str = "container",
    ) -> None:
        if capacity <= 0:
            raise SimulationError("container capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.level = capacity if init is None else init
        if not 0 <= self.level <= capacity:
            raise SimulationError("initial level out of range")
        self.name = name
        self._get_name = f"get({name})"  # formatted once (hot path)
        self._getters: Deque[tuple[Event, float]] = deque()
        self._min_level = self.level
        san = sim.sanitizer
        if san is not None:
            san.adopt("container", self)

    def get(self, amount: float) -> Event:
        """Take ``amount`` units, blocking until available (FIFO order)."""
        if amount < 0:
            raise SimulationError("container get amount must be >= 0")
        if amount > self.capacity:
            raise SimulationError(
                f"get({amount}) exceeds container capacity {self.capacity}"
            )
        ev = Event(self.sim, name=self._get_name)
        san = self.sim.sanitizer
        if not self._getters and amount <= self.level:
            self.level -= amount
            self._min_level = min(self._min_level, self.level)
            if san is not None:
                san.container_grant(self, amount)
            ev.succeed(amount)
        else:
            self._getters.append((ev, amount))
            if san is not None:
                san.claim("container-wait", id(ev), self.name)
        return ev

    def try_get(self, amount: float) -> bool:
        """Non-blocking take, honouring FIFO waiters (fails if any queued)."""
        if self._getters or amount > self.level:
            return False
        self.level -= amount
        self._min_level = min(self._min_level, self.level)
        san = self.sim.sanitizer
        if san is not None:
            san.container_grant(self, amount)
        return True

    def put(self, amount: float) -> None:
        if amount < 0:
            raise SimulationError("container put amount must be >= 0")
        if self.level + amount > self.capacity + 1e-9:
            # Over-returning credits is always an accounting bug in the
            # caller; clamping here would silently mask it.
            raise SimulationError(
                f"container {self.name!r} over-returned: "
                f"level {self.level} + put({amount}) exceeds capacity {self.capacity}"
            )
        self.level += amount
        san = self.sim.sanitizer
        if san is not None:
            san.container_put(self, amount)
        while self._getters and self._getters[0][1] <= self.level:
            ev, amt = self._getters.popleft()
            self.level -= amt
            self._min_level = min(self._min_level, self.level)
            if san is not None:
                san.retire("container-wait", id(ev))
                san.container_grant(self, amt)
            ev.succeed(amt)

    @property
    def min_level(self) -> float:
        return self._min_level
