"""Event heap, tasks and timeouts — the heart of the simulator.

Design notes
------------

* The event heap stores ``(time, seq, callback, args)`` tuples; ``seq``
  breaks ties FIFO so same-time events run in schedule order, which makes
  runs deterministic regardless of callback identity. That push stream
  is the contract: wake-ups (:meth:`Simulator.wake`, :meth:`Task._step`)
  skip ``schedule`` but push the same.
* Tasks are generators. A task may ``yield``:

  - ``float | int`` — sleep that many simulated seconds,
  - :class:`Timeout` — same, with an optional value delivered back,
  - another :class:`Task` — join it (its return value is delivered;
    its exception, if any, is re-raised inside the waiter),
  - any object with a ``_subscribe(callback)`` method — the
    synchronization primitives in :mod:`repro.sim.sync` and the I/O
    completion objects used across the stack,
  - ``None`` — cooperative re-schedule at the current time.

* A task finishing with an un-watched exception is recorded and re-raised
  by :meth:`Simulator.run` — silent failure in a corner of a simulated
  cluster would otherwise be indistinguishable from a hang.
"""

from __future__ import annotations

import heapq
from heapq import heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import DeadlockError, SimulationError

TaskGen = Generator[Any, Any, Any]

#: exact type -> ``ready(awaitable, callback)`` of the :mod:`repro.sim.sync`
#: primitives (``_Ready``): what :meth:`Task._step` wakes without ``_wire``
_READY: dict = {}


class Timeout:
    """Awaitable delay of ``delay`` simulated seconds, delivering ``value``."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        self.delay = float(delay)
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Timeout({self.delay!r})"


class Task:
    """A running simulated activity wrapping a generator.

    Tasks support joining (``yield task``), cancellation, and inspection
    of their result after completion.
    """

    __slots__ = (
        "sim",
        "name",
        "tid",
        "_gen",
        "_done",
        "_result",
        "_error",
        "_error_observed",
        "_waiters",
        "_cancelled",
        "_resume",
    )

    def __init__(self, sim: "Simulator", gen: TaskGen, name: str = ""):
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "task")
        sim._next_tid += 1
        self.tid = sim._next_tid
        self._gen = gen
        self._done = False
        self._result: Any = None
        self._error: Optional[BaseException] = None
        self._error_observed = False
        self._waiters: list[Callable[[], None]] = []
        self._cancelled = False
        self._resume = self._step  # bound once; _finish breaks the cycle

    # -- public inspection ------------------------------------------------
    @property
    def done(self) -> bool:
        return self._done

    @property
    def result(self) -> Any:
        if not self._done:
            raise SimulationError(f"task {self.name!r} has not finished")
        if self._error is not None:
            self._error_observed = True
            raise self._error
        return self._result

    @property
    def error(self) -> Optional[BaseException]:
        self._error_observed = True
        return self._error

    def cancel(self) -> None:
        """Stop the task at its next resumption point.

        Cancellation is cooperative: an already-finished task is left
        untouched; a pending one is marked and closed when next resumed.
        """
        if not self._done:
            self._cancelled = True

    def defuse(self) -> "Task":
        """Declare that this task's error will be observed later (via
        ``result`` or a join), suppressing the fail-fast raise from
        :meth:`Simulator.run`. Use when spawning a batch of tasks that
        are joined after the fact."""
        self._error_observed = True
        return self

    # -- kernel interface --------------------------------------------------
    def _subscribe(self, callback: Callable[[], None]) -> None:
        if self._done:
            self.sim.wake(callback)
        else:
            self._waiters.append(callback)

    def _step(self, to_send: Any = None, to_throw: BaseException | None = None) -> None:
        if self._done:
            return
        if self._cancelled:
            self._gen.close()
            self._finish(None, None)
            return
        sim = self.sim
        prev_task = sim._current_task
        sim._current_task = self
        try:
            if to_throw is not None:
                yielded = self._gen.throw(to_throw)
            else:
                yielded = self._gen.send(to_send)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except BaseException as exc:  # noqa: BLE001 - deliberately broad
            self._finish(None, exc)
            return
        finally:
            sim._current_task = prev_task
        if type(yielded) is float and yielded >= 0:
            args = ()
        else:  # a negative sleep takes _wire too, where schedule() refuses it
            ready = _READY.get(type(yielded))
            if ready is None:
                return self._wire(yielded)
            if (args := ready(yielded, self._resume)) is None:
                return  # parked
            yielded = 0.0
        sim._seq += 1  # Simulator.schedule, inlined
        heappush(sim._heap, (sim._now + yielded, sim._seq, self._resume, args))

    def _wire(self, yielded: Any) -> None:
        sim = self.sim
        if yielded is None:
            sim.wake(self._resume)
        elif isinstance(yielded, (int, float)):
            sim.schedule(float(yielded), self._resume)
        elif isinstance(yielded, Timeout):
            sim.schedule(yielded.delay, self._resume, yielded.value)
        elif isinstance(yielded, Task):
            target = yielded

            def _joined() -> None:
                if target._error is not None:
                    target._error_observed = True
                    self._step(None, target._error)
                else:
                    self._step(target._result)

            target._subscribe(_joined)
        elif hasattr(yielded, "_subscribe"):
            yielded._subscribe(self._resume)
        else:
            self._step(
                None,
                SimulationError(
                    f"task {self.name!r} yielded unawaitable {yielded!r}"
                ),
            )

    def _finish(self, result: Any, error: BaseException | None) -> None:
        self._done = True
        self._resume = None
        self._result = result
        self._error = error
        if error is not None and not self._waiters:
            self.sim._record_failure(self)
        wake = self.sim.wake
        for callback in self._waiters:
            wake(callback)
        self._waiters.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self._done else "running"
        return f"<Task {self.name} {state}>"


class Simulator:
    """Single-threaded deterministic discrete-event simulator."""

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, Callable, tuple]] = []
        self._seq = 0
        self._failures: list[Task] = []
        self._running = False
        self._next_tid = 0
        self._current_task: Optional[Task] = None
        # Observability hooks; populated by repro.obs.install(). Kept as
        # plain attributes (not imports) so sim.core stays dependency-free
        # and tracing is strictly opt-in.
        self.tracer = None
        self.metrics = None
        self.timeline = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling --------------------------------------------------------
    def schedule(self, delay: float, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, callback, args))

    def wake(self, callback: Callable, args: tuple = ()) -> None:
        """``schedule(0.0, callback, *args)`` for a wake-up: the same push,
        without the delay check or the argument packing."""
        self._seq += 1
        heapq.heappush(self._heap, (self._now, self._seq, callback, args))

    def spawn(self, gen: TaskGen, name: str = "") -> Task:
        """Start a new task from a generator; it takes its first step at
        the current time, after the events already due then."""
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"spawn() needs a generator (got {type(gen).__name__}); "
                "did you forget to call the generator function?"
            )
        task = Task(self, gen, name)
        self.schedule(0.0, task._resume)
        if self.timeline is not None:
            # Revive a parked metrics scraper (repro.obs.timeline); the
            # scraper parks whenever the heap drains so it cannot mask
            # DeadlockError, and new activity starts it ticking again.
            self.timeline.on_activity()
        return task

    # -- execution ---------------------------------------------------------
    def _dispatch(self, task: Optional[Task], until: Optional[float],
                  limit: float) -> None:
        """The event loop: pop, check the clock is monotone, advance, call,
        surface failures. Returns when ``task`` (if given) is done, the
        heap drains, or the next event lies beyond ``until``."""
        heap = self._heap
        pop = heapq.heappop
        failures = self._failures
        while heap and (task is None or not task._done):
            if until is not None and heap[0][0] > until:
                return
            if self._now > limit:
                raise SimulationError(f"simulation exceeded limit t={limit}")
            time, _seq, callback, args = pop(heap)
            if time < self._now - 1e-12:
                raise SimulationError("event heap went backwards")
            if time > self._now:
                self._now = time
            callback(*args)
            if failures:
                self._raise_failures()

    def run(self, until: float | None = None) -> float:
        """Run events until the heap drains or ``until`` is reached.

        Returns the simulated time at which execution stopped.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        try:
            self._dispatch(None, until, float("inf"))
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def run_until_complete(self, task: Task, limit: float = 1e9) -> Any:
        """Drive the simulation until ``task`` finishes and return its result."""
        self._dispatch(task, None, limit)
        if not task._done:
            raise DeadlockError(
                f"no runnable events but task {task.name!r} is pending"
            )
        return task.result

    # -- failure bookkeeping -------------------------------------------------
    def _record_failure(self, task: Task) -> None:
        self._failures.append(task)

    def _raise_failures(self) -> None:
        while self._failures:
            task = self._failures.pop()
            if not task._error_observed and task._error is not None:
                task._error_observed = True
                raise SimulationError(
                    f"unhandled error in task {task.name!r}"
                ) from task._error

