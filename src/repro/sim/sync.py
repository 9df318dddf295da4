"""Synchronization primitives for simulated tasks.

All primitives expose ``_subscribe(callback)`` so they can be ``yield``-ed
from a task. Wake-ups go onto the event heap (never called inline) so
ordering stays deterministic and reentrancy-safe.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator, List, Optional

from repro.errors import SimulationError
from repro.sim.core import _READY, Simulator


class _Ready:
    """``_ready(cb)``: the wake-up's args if due now, else park ``cb``.
    Tasks reach it through the kernel's exact-type table (``_READY``)."""

    __slots__ = ()

    def _subscribe(self, callback: Callable[[Any], None]) -> None:
        if (args := self._ready(callback)) is not None:
            self.sim.wake(callback, args)


class Gate(_Ready):
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
        wake = self.sim.wake
        for waiter in self._waiters:
            wake(waiter, (value,))
        self._waiters.clear()

    def _ready(self, callback: Callable[[Any], None]) -> Optional[tuple]:
        if self._open:
            return (self._value,)
        self._waiters.append(callback)
        return None


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
            self.sim.wake(waiter, (value,))

    def _subscribe(self, callback: Callable[[Any], None]) -> None:
        self._waiters.append(callback)


class Queue:
    """Unbounded FIFO channel between tasks.

    ``put`` never blocks; ``get()`` returns an awaitable that delivers the
    oldest item. Used for mailboxes (RPC requests, Raft inboxes).
    """

    __slots__ = ("sim", "_items", "_getters")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Callable[[Any], None]] = deque()

    def put(self, item: Any) -> None:
        if self._getters:
            self.sim.wake(self._getters.popleft(), (item,))
        else:
            self._items.append(item)

    def get(self) -> "_QueueGet":
        return _QueueGet(self)


class _QueueGet(_Ready):
    __slots__ = ("queue", "sim")

    def __init__(self, queue: Queue):
        self.queue = queue
        self.sim = queue.sim

    def _ready(self, callback: Callable[[Any], None]) -> Optional[tuple]:
        if self.queue._items:
            return (self.queue._items.popleft(),)
        self.queue._getters.append(callback)
        return None


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
            self.sim.wake(self._waiters.popleft(), (None,))
        else:
            self._count += 1

    def take(self) -> bool:
        """Take a free credit without yielding; False if none is free.

        A free credit costs no event and cannot jump the queue:
        :meth:`release` hands a credit straight to the oldest waiter, so
        the count is only positive while nobody waits. Callers fall back
        to ``yield sem.acquire()``, or to :meth:`park` outside a task.
        """
        if self._count > 0:
            self._count -= 1
            return True
        return False

    def park(self, callback: Callable[[Any], None]) -> None:
        """A callback chain's ``yield self.acquire()`` after a failed
        :meth:`take`: :meth:`release` wakes ``callback(None)`` in turn."""
        self._waiters.append(callback)

    def held(self) -> Generator[Any, Any, "_SemGuard"]:
        """Task helper: ``guard = yield from sem.held()`` ... ``guard.release()``;
        a free credit is taken without yielding (:meth:`take`)."""
        if not self.take():
            yield self.acquire()
        return _SemGuard(self)


class _SemAcquire(_Ready):
    __slots__ = ("sem", "sim")

    def __init__(self, sem: Semaphore):
        self.sem = sem
        self.sim = sem.sim

    def _ready(self, callback: Callable[[Any], None]) -> Optional[tuple]:
        if self.sem.take():
            return (None,)
        self.sem.park(callback)
        return None


class _SemGuard:
    __slots__ = ("sem", "_released")

    def __init__(self, sem: Semaphore):
        self.sem = sem
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self.sem.release()


_READY.update({Gate: Gate._ready, _QueueGet: _QueueGet._ready,
               _SemAcquire: _SemAcquire._ready})


class Lock(Semaphore):
    """Binary semaphore."""

    def __init__(self, sim: Simulator):
        super().__init__(sim, 1)

