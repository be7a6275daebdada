"""Shared-resource primitives for the simulation kernel.

These mirror the classic SimPy resource set, trimmed to what the network
and NIC models need:

* :class:`Resource` — ``capacity`` identical servers with a FIFO queue
  (used for HPU pools, CPU cores, DMA engines);
* :class:`Store` — an unbounded or bounded FIFO of Python objects (used
  for RPC command queues, the NVMe submission queue and the replicator's
  work queue);
* :class:`Container` — a counted pool of indistinguishable units (used
  for NIC memory accounting).

No producer ever blocks here: ``Store.put`` and ``Container.try_get``
answer at once, and a full store refuses the item.  The one producer
that stalls on a full queue, a PsPIN handler forwarding packets, waits
on the accelerator's own egress queue and its ``egress_credits`` slots
(``repro.pspin.accelerator._HandlerEgress``), not on anything here.
Consumers wait: ``Resource.request`` and ``Store.get`` return
:class:`~repro.simnet.engine.Event` objects, so processes simply
``yield`` them.  A claim, once made, stays queued until it is granted:
nothing withdraws a waiter, since nothing in the kernel preempts a
process.
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

    ``put`` never blocks: it returns False, storing nothing, when a
    bounded store is full.  ``get`` returns an event that fires with the
    first item, at once or at the put that brings it.  simsan tracks
    nothing here: no put can be left blocked, and a getter parked on an
    empty store is the steady state of a quiesced service loop.
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
        self._get_name = f"get({name})"  # formatted once (hot path)
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: Any) -> bool:
        """Hand ``item`` to the first waiting getter, or queue it; False
        when a bounded store is full."""
        if self._getters:
            self._getters.popleft().succeed(item)
            return True
        if self.capacity is not None and len(self.items) >= self.capacity:
            return False
        self.items.append(item)
        return True

    def get(self) -> Event:
        ev = Event(self.sim, name=self._get_name)
        if self.items:
            ev.succeed(self.items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self.items)


class Container:
    """A counted pool of units (bytes of NIC memory): ``try_get`` takes
    units if the pool has them, ``put`` returns them."""

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
        self._min_level = self.level
        san = sim.sanitizer
        if san is not None:
            san.adopt("container", self)

    def try_get(self, amount: float) -> bool:
        """Take ``amount`` units if the pool holds them (True), else
        take nothing (False)."""
        if amount < 0:
            raise SimulationError("container get amount must be >= 0")
        if amount > self.level:
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

    @property
    def min_level(self) -> float:
        return self._min_level
