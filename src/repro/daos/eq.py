"""The libdaos event/event-queue model (``daos_eq_*`` / ``daos_event_*``).

Every libdaos data-plane call takes an optional ``daos_event_t``; passing
one makes the call non-blocking and the caller later reaps completions
from the event queue (``daos_eq_poll``). This module reproduces that
shape on top of the simulator's task machinery, with one queue surface:
``submit`` / ``try_reap`` / ``drain`` / ``close``:

- an :class:`Event` wraps one launched operation (a sim task spawned
  from the operation's task-helper generator) and records its submit
  and completion times;
- an :class:`EventQueue` tracks launched events, enforces a bounded
  in-flight window (the queue-depth knob the real client controls by
  how many events it keeps outstanding), and reaps completions in
  deterministic completion order;
- :class:`Inline` is its blocking twin: ``submit`` runs the operation
  in the submitter's own task, as the blocking call does.

Determinism: launches and completions all travel through the simulator's
event heap, so reap order is a pure function of the seed. At ``depth=1``
every added hop is zero-delay, so timings equal the blocking calls'
(pinned by ``tests/eq``); :class:`Inline` adds no hop at all.

Observability: when the simulator runs observed, each event carries a
``client.eq.event`` span covering launch-to-completion and the queue
maintains a ``client.eq.inflight{eq=<name>}`` gauge.
"""

from __future__ import annotations

import itertools
from typing import Any, Generator, List, Optional

from repro.errors import DerBusy, DerCanceled, DerInval
from repro.sim.core import Simulator, Task
from repro.sim.sync import Condition

_eq_seq = itertools.count(1)

#: Event states, mirroring daos_event_t's lifecycle.
EV_READY = "ready"        # initialised, not yet launched
EV_RUNNING = "running"    # operation in flight
EV_COMPLETED = "completed"  # finished (result or error held)
EV_ABORTED = "aborted"    # cancelled before completion


class Event:
    """One in-flight operation's completion record (``daos_event_t``).

    ``result`` re-raises the operation's error, exactly like checking
    ``ev.ev_error`` after a reap. Events are single-shot: once reaped
    they leave the queue, but the result stays readable.
    """

    __slots__ = (
        "eq",
        "eid",
        "name",
        "state",
        "submit_time",
        "complete_time",
        "_task",
        "_result",
        "_error",
        "_span",
    )

    def __init__(self, eq: "EventQueue", eid: int, name: str):
        self.eq = eq
        self.eid = eid
        self.name = name
        self.state = EV_READY
        self.submit_time: Optional[float] = None
        self.complete_time: Optional[float] = None
        self._task: Optional[Task] = None
        self._result: Any = None
        self._error: Optional[BaseException] = None
        self._span = None

    # ------------------------------------------------------------- queries
    @property
    def done(self) -> bool:
        return self.state in (EV_COMPLETED, EV_ABORTED)

    @property
    def error(self) -> Optional[BaseException]:
        return self._error

    @property
    def result(self) -> Any:
        """The operation's return value; re-raises its error."""
        if not self.done:
            raise DerBusy(f"event {self.eid} ({self.name}) still running")
        if self._error is not None:
            raise self._error
        return self._result

    @property
    def elapsed(self) -> float:
        """Launch-to-completion simulated seconds (0.0 until done)."""
        if self.submit_time is None or self.complete_time is None:
            return 0.0
        return self.complete_time - self.submit_time

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Event {self.eid} {self.name!r} {self.state}>"


def reap(events: List[Event]) -> None:
    """Check every reaped event: re-raises the first held operation
    error, like reading ``ev.ev_error`` after ``daos_eq_poll``."""
    for event in events:
        event.result


class EventQueue:
    """A completion queue with a bounded in-flight window (``daos_eq_t``).

    ``depth`` bounds how many launched events may be outstanding at
    once; :meth:`submit` is a task helper that waits for a free slot
    before spawning the operation, which is how IOR-style loops express
    "keep N transfers in flight". ``depth=None`` leaves the window
    unbounded (the real libdaos queue), matching callers that manage
    their own pipelining.
    """

    def __init__(self, sim: Simulator, depth: Optional[int] = None,
                 name: str = "", metered: bool = True):
        if depth is not None and depth < 1:
            raise DerInval(f"event queue depth must be >= 1, got {depth}")
        self.sim = sim
        self.depth = depth
        self.name = name or f"eq{next(_eq_seq)}"
        #: whether this queue exports its own labeled in-flight gauge;
        #: short-lived per-job queues pass False so a 1000-job run does
        #: not mint 1000 one-shot gauge series for the scraper to walk.
        self.metered = metered
        self._next_eid = 0
        #: events launched and not yet reaped, in completion order
        self._completed: List[Event] = []
        self._inflight: List[Event] = []
        self._cond = Condition(sim)
        self._closed = False

    def _gauge(self, delta: int) -> None:
        if not self.metered:
            return
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.gauge(f"client.eq.inflight{{eq={self.name}}}").add(
                self.sim.now, delta
            )

    # ------------------------------------------------------------- launch
    def submit(self, op: Generator, name: str = "") -> Generator:
        """Task helper: launch ``op`` (a task-helper generator) as a
        non-blocking operation; returns its :class:`Event`.

        Blocks (simulated) while the in-flight window is full — the
        bounded-queue-depth behaviour a pipelined client wants. The
        spawned operation's error is captured on the event and re-raised
        only when the caller reads ``event.result``.
        """
        while self.depth is not None and len(self._inflight) >= self.depth:
            yield self._cond
        if self._closed:
            raise DerInval(f"event queue {self.name} is closed")
        self._next_eid += 1
        event = Event(self, self._next_eid, name or f"op{self._next_eid}")
        event.state = EV_RUNNING
        event.submit_time = self.sim.now
        tracer = self.sim.tracer
        # parent the event span under whatever span the submitter has open
        parent_id = tracer.current_span_id() if tracer is not None else None
        task = self.sim.spawn(
            self._run(event, op, parent_id), name=f"{self.name}:{event.name}"
        )
        # errors surface through event.result, not the fail-fast scan
        task.defuse()
        event._task = task
        # catches a close before the task starts: the closed task never
        # enters _run's body, so the subscription below flips the state
        task._subscribe(lambda: self._on_task_done(event))
        self._inflight.append(event)
        self._gauge(+1)
        return event

    def _run(self, event: Event, op: Generator,
             parent_id: Optional[int]) -> Generator:
        tracer = self.sim.tracer
        if tracer is not None:
            # begun inside the spawned task so the operation's own spans
            # nest underneath without touching the submitter's stack
            event._span = tracer.begin(
                "client.eq.event",
                "client",
                parent_id=parent_id,
                attrs={"eq": self.name, "eid": event.eid, "op": event.name},
            )
        try:
            result = yield from op
        except BaseException as exc:  # noqa: BLE001 - delivered via result
            self._finish(event, None, exc)
            raise
        self._finish(event, result, None)
        return result

    def _on_task_done(self, event: Event) -> None:
        if not event.done:
            self._finish(
                event, None,
                DerCanceled(f"event {event.eid} aborted before launch"),
            )

    def _finish(self, event: Event, result: Any,
                error: Optional[BaseException]) -> None:
        if event.done:
            return
        if isinstance(error, GeneratorExit) or isinstance(error, DerCanceled):
            event.state = EV_ABORTED
            error = error if isinstance(error, DerCanceled) else DerCanceled(
                f"event {event.eid} ({event.name}) aborted"
            )
        else:
            event.state = EV_COMPLETED
        event._result = result
        event._error = error
        event.complete_time = self.sim.now
        tracer = self.sim.tracer
        if tracer is not None and event._span is not None:
            tracer.end(
                event._span, error=type(error).__name__ if error else None
            )
            event._span = None
        self._inflight.remove(event)
        self._completed.append(event)
        self._gauge(-1)
        self._cond.notify_all()

    # ------------------------------------------------------------- reaping
    def try_reap(self) -> List[Event]:
        """Non-blocking reap of completed events, in completion order."""
        reaped, self._completed = self._completed, []
        return reaped

    def drain(self) -> Generator:
        """Task helper: wait for every in-flight event and reap all."""
        while self._inflight:
            yield self._cond
        return self.try_reap()

    # ------------------------------------------------------------- lifecycle
    def close(self) -> Generator:
        """Task helper (``daos_eq_destroy``): abort anything in flight,
        wait for the aborts to land, reap and discard.

        An abort is cooperative, like task cancellation: the operation
        stops at its next resumption point; work already applied stays
        applied, and the event's result raises ``DerCanceled``.
        """
        for event in list(self._inflight):
            event._task.cancel()
        while self._inflight:
            yield self._cond
        self._completed.clear()
        self._closed = True
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<EventQueue {self.name} depth={self.depth} "
            f"inflight={len(self._inflight)} done={len(self._completed)}>"
        )


class Inline:
    """The blocking twin of :class:`EventQueue`.

    Same ``submit`` / ``try_reap`` / ``drain`` / ``close`` surface, but
    :meth:`submit` runs the operation to completion in the submitter's
    own task and raises its error there, as the blocking call does: no
    task, no heap push, no ``client.eq.event`` span, no gauge. The
    returned :class:`Event` is already complete, ``elapsed`` the call's
    duration.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._next_eid = 0
        self._completed: List[Event] = []

    def submit(self, op: Generator, name: str = "") -> Generator:
        """Task helper: run ``op`` now; returns its completed Event."""
        self._next_eid += 1
        event = Event(self, self._next_eid, name)
        event.submit_time = self.sim.now
        event._result = yield from op
        event.state = EV_COMPLETED
        event.complete_time = self.sim.now
        self._completed.append(event)
        return event

    def try_reap(self) -> List[Event]:
        """The completed events not yet reaped, in submit order."""
        reaped, self._completed = self._completed, []
        return reaped

    def drain(self) -> Generator:
        """Task helper: nothing is ever in flight; reaps what is held."""
        return self.try_reap()
        yield  # pragma: no cover - marks this as a (zero-hop) task helper

    def close(self) -> Generator:
        """Task helper: discard unreaped events."""
        self._completed.clear()
        return None
        yield  # pragma: no cover - marks this as a (zero-hop) task helper
