"""The kernel's determinism contract: the heap-push stream.

Every event is one heap entry ``(time, seq, callback, args)``, and the
order in which those entries are pushed and popped is what makes a run
reproducible. A change to how tasks are woken up may make each wake-up
cheaper, but it must push the same entries: same times, same sequence
numbers, same callbacks. The "task soup" below exercises every kind of
awaitable and pins the digest of its trace.
"""

import hashlib
import heapq
import random

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim import Gate, Queue, Semaphore, Simulator, Timeout

#: sha256 of the soup's ``(time, seq, callback qualname)`` trace
SOUP_DIGEST = (
    "6777883651c672a274cc90a1f6f211fdd8cbe79321773a127e7f0454b72a0e30"
)
#: heap pushes the soup makes
SOUP_PUSHES = 149


def _soup(sim: Simulator, rng: random.Random) -> dict:
    """Spawn a seeded mix of tasks using every kind of awaitable; the
    returned dict fills in as they run."""
    gate = Gate(sim)
    queue = Queue(sim)
    sem = Semaphore(sim, 2)
    seen = {"gate": [], "queue": [], "sem": [], "timeout": [],
            "joined": [], "late": None, "cancelled": False, "garbage": 0}

    def sleeper(i):
        for _ in range(4):
            yield rng.random() * 1e-3  # float sleep
            yield rng.randrange(2)  # int sleep, zero included
            got = yield Timeout(rng.random() * 1e-3, (i, "t"))
            seen["timeout"].append(got)
            yield None  # same-instant re-schedule

    def gate_waiter(i):
        if i % 2:
            yield rng.random() * 1e-3
        seen["gate"].append((i, (yield gate)))

    def opener():
        yield 0.7e-3
        gate.open("opened")

    def producer():
        for k in range(12):
            if rng.random() < 0.5:
                yield rng.random() * 1e-4
            queue.put(k)

    def consumer(i):
        for _ in range(4):
            seen["queue"].append((i, (yield queue.get())))

    def contender(i):
        for _ in range(3):
            if i % 2:
                guard = yield from sem.held()
                yield rng.random() * 1e-4
                guard.release()
            else:
                yield sem.acquire()
                yield rng.random() * 1e-4
                sem.release()
            seen["sem"].append((i, sim.now))

    def failing():
        yield 2e-4
        raise ValueError("boom")

    def joiner():
        try:
            yield sim.spawn(failing(), "failing")
        except ValueError as exc:
            seen["joined"].append(str(exc))

    def quick():
        yield 1e-5
        return "quick"

    def late_joiner(task):
        yield 1e-3
        seen["late"] = yield task  # joins a task that already finished

    def victim():
        yield 1.0
        seen["cancelled"] = True

    def canceller(task):
        yield 3e-4
        task.cancel()

    def garbage():
        try:
            yield object()
        except SimulationError:
            seen["garbage"] += 1
        yield 1e-5

    for i in range(4):
        sim.spawn(sleeper(i), f"sleeper{i}")
    for i in range(3):
        sim.spawn(gate_waiter(i), f"gate{i}")
    sim.spawn(opener(), "opener")
    sim.spawn(producer(), "producer")
    for i in range(3):
        sim.spawn(consumer(i), f"consumer{i}")
    for i in range(5):
        sim.spawn(contender(i), f"contender{i}")
    sim.spawn(joiner(), "joiner")
    sim.spawn(late_joiner(sim.spawn(quick(), "quick")), "late")
    sim.spawn(canceller(sim.spawn(victim(), "victim")), "canceller")
    sim.spawn(garbage(), "garbage")
    return seen


def _trace(monkeypatch, seed: int):
    """Run the soup to completion and return its pop trace, its heap
    pushes and what the tasks saw. The heap drains, so every push is
    popped, and the pops come out in ``(time, seq)`` order: the trace is
    the push stream."""
    trace = []
    pop = heapq.heappop

    def recording_pop(heap):
        entry = pop(heap)
        trace.append((entry[0], entry[1], entry[2].__qualname__))
        return entry

    monkeypatch.setattr(heapq, "heappop", recording_pop)
    sim = Simulator()
    seen = _soup(sim, random.Random(seed))
    sim.run()
    return trace, sim._seq, seen


def test_task_soup_push_stream_is_pinned(monkeypatch):
    trace, pushes, seen = _trace(monkeypatch, 7)
    assert pushes == len(trace) == SOUP_PUSHES
    digest = hashlib.sha256(repr(trace).encode()).hexdigest()
    assert digest == SOUP_DIGEST
    # the soup did what it says
    assert len(seen["timeout"]) == 16
    assert sorted(v for _i, v in seen["gate"]) == ["opened"] * 3
    assert sorted(v for _i, v in seen["queue"]) == list(range(12))
    assert len(seen["sem"]) == 15
    assert seen["joined"] == ["boom"]
    assert seen["late"] == "quick"
    assert seen["cancelled"] is False
    assert seen["garbage"] == 1


def test_negative_float_sleep_raises():
    sim = Simulator()

    def proc():
        yield -1e-3

    sim.spawn(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_numpy_float_sleep_works():
    sim = Simulator()

    def proc():
        yield np.float64(0.25)
        yield np.float64(0.5)
        return sim.now

    task = sim.spawn(proc())
    sim.run()
    assert task.result == 0.75


def test_custom_subscribe_awaitable_works():
    sim = Simulator()

    class Later:
        """Delivers ``value`` after ``delay``, through the callback."""

        def __init__(self, delay, value):
            self.delay, self.value = delay, value

        def _subscribe(self, callback):
            sim.schedule(self.delay, callback, self.value)

    def proc():
        got = yield Later(2.0, "later")
        return got, sim.now

    task = sim.spawn(proc())
    sim.run()
    assert task.result == ("later", 2.0)


def test_unawaitable_yield_is_thrown_into_the_task():
    sim = Simulator()

    def proc():
        try:
            yield "not awaitable"
        except SimulationError as exc:
            return str(exc)

    task = sim.spawn(proc(), "picky")
    sim.run()
    assert "unawaitable" in task.result and "picky" in task.result
