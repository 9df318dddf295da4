"""Synchronization primitives for simulated tasks.

All primitives expose ``_subscribe(callback)`` so they can be ``yield``-ed
from a task. Wake-ups are scheduled through the simulator (never called
inline) so ordering stays deterministic and reentrancy-safe.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator, List

from repro.errors import SimulationError
from repro.sim.core import Simulator


class Gate:
    """One-shot event: tasks wait until someone calls :meth:`open`.

    The value passed to ``open`` is delivered to every waiter. Re-opening
    is an error; use a fresh Gate per occurrence.
    """

    __slots__ = ("sim", "_open", "_value", "_waiters")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._open = False
        self._value: Any = None
        self._waiters: List[Callable[[Any], None]] = []

    @property
    def value(self) -> Any:
        if not self._open:
            raise SimulationError("gate not open yet")
        return self._value

    def open(self, value: Any = None) -> None:
        if self._open:
            raise SimulationError("gate already open")
        self._open = True
        self._value = value
        for waiter in self._waiters:
            self.sim.schedule(0.0, waiter, value)
        self._waiters.clear()

    def _subscribe(self, callback: Callable[[Any], None]) -> None:
        if self._open:
            self.sim.schedule(0.0, callback, self._value)
        else:
            self._waiters.append(callback)


class Condition:
    """Broadcast condition variable: :meth:`notify_all` wakes all waiters.

    Unlike :class:`Gate` it is reusable; waiters re-yield it to wait again.
    """

    __slots__ = ("sim", "_waiters")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._waiters: List[Callable[[Any], None]] = []

    def notify_all(self, value: Any = None) -> None:
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            self.sim.schedule(0.0, waiter, value)

    def _subscribe(self, callback: Callable[[Any], None]) -> None:
        self._waiters.append(callback)


class Queue:
    """Unbounded FIFO channel between tasks.

    ``put`` never blocks; ``get()`` returns an awaitable that delivers the
    oldest item. Used for mailboxes (OFI endpoints, engine work queues).
    """

    __slots__ = ("sim", "_items", "_getters")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Callable[[Any], None]] = deque()

    def put(self, item: Any) -> None:
        if self._getters:
            getter = self._getters.popleft()
            self.sim.schedule(0.0, getter, item)
        else:
            self._items.append(item)

    def get(self) -> "_QueueGet":
        return _QueueGet(self)


class _QueueGet:
    __slots__ = ("queue",)

    def __init__(self, queue: Queue):
        self.queue = queue

    def _subscribe(self, callback: Callable[[Any], None]) -> None:
        if self.queue._items:
            item = self.queue._items.popleft()
            self.queue.sim.schedule(0.0, callback, item)
        else:
            self.queue._getters.append(callback)


class Semaphore:
    """Counting semaphore with FIFO wakeup (engine inflight credits)."""

    __slots__ = ("sim", "_count", "_waiters")

    def __init__(self, sim: Simulator, count: int):
        if count < 0:
            raise SimulationError("semaphore count must be >= 0")
        self.sim = sim
        self._count = count
        self._waiters: Deque[Callable[[Any], None]] = deque()

    @property
    def available(self) -> int:
        return self._count

    def acquire(self) -> "_SemAcquire":
        return _SemAcquire(self)

    def release(self) -> None:
        if self._waiters:
            waiter = self._waiters.popleft()
            self.sim.schedule(0.0, waiter, None)
        else:
            self._count += 1

    def held(self) -> Generator[Any, Any, "_SemGuard"]:
        """Task helper: ``guard = yield from sem.held()`` ... ``guard.release()``.

        A free credit is taken without yielding. That cannot jump the
        queue: :meth:`release` hands a credit straight to the oldest
        waiter, so the count is only positive while nobody waits.
        """
        if self._count > 0:
            self._count -= 1
        else:
            yield self.acquire()
        return _SemGuard(self)


class _SemAcquire:
    __slots__ = ("sem",)

    def __init__(self, sem: Semaphore):
        self.sem = sem

    def _subscribe(self, callback: Callable[[Any], None]) -> None:
        if self.sem._count > 0:
            self.sem._count -= 1
            self.sem.sim.schedule(0.0, callback, None)
        else:
            self.sem._waiters.append(callback)


class _SemGuard:
    __slots__ = ("sem", "_released")

    def __init__(self, sem: Semaphore):
        self.sem = sem
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self.sem.release()


class Lock(Semaphore):
    """Binary semaphore."""

    def __init__(self, sim: Simulator):
        super().__init__(sim, 1)

