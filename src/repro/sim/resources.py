"""Queues and shared-resource primitives for the simulation kernel.

These model the hardware queues in the system:

* :class:`Store` -- a FIFO channel with blocking ``get``; used for the NIC
  doorbell FIFO, the NIC command queue and the GPU's in-memory command
  queues (HSA soft queues).
* :class:`Resource` -- a counted semaphore; used for CPU cores and GPU
  compute-unit slots.
* :class:`Container` -- a level-triggered counter; used for credit/flow
  control on links.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.engine import Event, SimulationError, Simulator

__all__ = ["Container", "Resource", "Store"]


class Store:
    """An optionally-bounded FIFO channel.

    ``put`` returns an event that fires once the item is enqueued (at once
    unless the store is full); ``get`` returns an event that fires with the
    oldest item once one is available.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None, name: str = ""):
        if capacity is not None and capacity <= 0:
            raise SimulationError(f"store capacity must be positive, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()
        # Event names rendered once, not per get/put: the trigger-FIFO
        # pump creates one get event per doorbell write, a hot path.
        self._put_name = f"put:{name}"
        self._get_name = f"get:{name}"

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self.items) >= self.capacity

    def put(self, item: Any) -> Event:
        ev = Event(self.sim, name=self._put_name)
        if self._getters:
            # Hand straight to the oldest waiting getter.
            getter = self._getters.popleft()
            getter.succeed(item)
            ev.succeed()
        elif not self.is_full:
            self.items.append(item)
            ev.succeed()
        else:
            self._putters.append((ev, item))
        return ev

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False if the store is full."""
        if self._getters:
            self._getters.popleft().succeed(item)
            return True
        if self.is_full:
            return False
        self.items.append(item)
        return True

    def get(self) -> Event:
        ev = Event(self.sim, name=self._get_name)
        if self.items:
            ev.succeed(self.items.popleft())
            self._admit_putter()
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get; returns (ok, item)."""
        if self.items:
            item = self.items.popleft()
            self._admit_putter()
            return True, item
        return False, None

    def _admit_putter(self) -> None:
        if self._putters and not self.is_full:
            ev, item = self._putters.popleft()
            self.items.append(item)
            ev.succeed()


class Resource:
    """A counted semaphore with FIFO granting.

    ``acquire(n)`` yields an event firing when ``n`` units (default one)
    are granted; ``release`` returns one unit.  Models CPU cores and
    compute-unit work-group slots.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = ""):
        if capacity <= 0:
            raise SimulationError(f"resource capacity must be positive, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[tuple[Event, int]] = deque()

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def acquire(self, amount: int = 1) -> Event:
        """An event firing once ``amount`` units are granted (FIFO: a
        request never overtakes an earlier waiter)."""
        if not 0 < amount <= self.capacity:
            raise SimulationError(
                f"cannot acquire {amount} of {self.capacity} units of "
                f"{self.name!r}")
        ev = Event(self.sim, name=f"acquire:{self.name}")
        if not self._waiters and self.in_use + amount <= self.capacity:
            self.in_use += amount
            ev.succeed()
        else:
            self._waiters.append((ev, amount))
        return ev

    def release(self) -> None:
        if self.in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        self.in_use -= 1
        # Grant waiters in order while the head request fits.
        while (self._waiters
               and self.in_use + self._waiters[0][1] <= self.capacity):
            ev, amount = self._waiters.popleft()
            self.in_use += amount
            ev.succeed()

    def request(self):
        """Context-manager style helper for use inside processes::

            with (yield res.acquire_cm()) ...   # not supported; use explicit
        """
        raise SimulationError("use acquire()/release() explicitly inside processes")


class Container:
    """A level-triggered counter (e.g. link credits, byte pools)."""

    def __init__(self, sim: Simulator, init: int = 0, capacity: Optional[int] = None, name: str = ""):
        if init < 0:
            raise SimulationError("container level cannot start negative")
        if capacity is not None and init > capacity:
            raise SimulationError("container initial level exceeds capacity")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.level = init
        self._getters: Deque[tuple[Event, int]] = deque()
        self._putters: Deque[tuple[Event, int]] = deque()

    def put(self, amount: int) -> Event:
        if amount <= 0:
            raise SimulationError("container put amount must be positive")
        ev = Event(self.sim, name=f"cput:{self.name}")
        self._putters.append((ev, amount))
        self._settle()
        return ev

    def get(self, amount: int) -> Event:
        if amount <= 0:
            raise SimulationError("container get amount must be positive")
        ev = Event(self.sim, name=f"cget:{self.name}")
        self._getters.append((ev, amount))
        self._settle()
        return ev

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters:
                ev, amount = self._putters[0]
                if self.capacity is None or self.level + amount <= self.capacity:
                    self.level += amount
                    self._putters.popleft()
                    ev.succeed()
                    progressed = True
            if self._getters:
                ev, amount = self._getters[0]
                if self.level >= amount:
                    self.level -= amount
                    self._getters.popleft()
                    ev.succeed()
                    progressed = True
