"""Unit tests for simulation synchronization primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim import Condition, Gate, Lock, Queue, Semaphore, Simulator


def test_gate_delivers_value_to_all_waiters():
    sim = Simulator()
    gate = Gate(sim)
    results = []

    def waiter(i):
        value = yield gate
        results.append((i, value, sim.now))

    for i in range(3):
        sim.spawn(waiter(i))
    sim.schedule(2.0, gate.open, "go")
    sim.run()
    assert results == [(0, "go", 2.0), (1, "go", 2.0), (2, "go", 2.0)]


def test_gate_open_twice_is_error():
    sim = Simulator()
    gate = Gate(sim)
    gate.open()
    with pytest.raises(SimulationError):
        gate.open()


def test_gate_waiting_after_open_returns_immediately():
    sim = Simulator()
    gate = Gate(sim)
    gate.open(5)

    def late():
        value = yield gate
        return value

    task = sim.spawn(late())
    sim.run()
    assert task.result == 5
    assert gate.value == 5


def test_condition_is_reusable():
    sim = Simulator()
    cond = Condition(sim)
    hits = []

    def waiter():
        for _ in range(2):
            value = yield cond
            hits.append((value, sim.now))

    sim.spawn(waiter())
    sim.schedule(1.0, cond.notify_all, "x")
    sim.schedule(2.0, cond.notify_all, "y")
    sim.run()
    assert hits == [("x", 1.0), ("y", 2.0)]


def test_queue_fifo_order():
    sim = Simulator()
    queue = Queue(sim)
    got = []

    def consumer():
        for _ in range(3):
            item = yield queue.get()
            got.append(item)

    sim.spawn(consumer())
    for i in range(3):
        queue.put(i)
    sim.run()
    assert got == [0, 1, 2]


def test_queue_blocks_until_put():
    sim = Simulator()
    queue = Queue(sim)

    def consumer():
        item = yield queue.get()
        return (item, sim.now)

    task = sim.spawn(consumer())
    sim.schedule(3.0, queue.put, "late")
    sim.run()
    assert task.result == ("late", 3.0)


def test_semaphore_limits_concurrency():
    sim = Simulator()
    sem = Semaphore(sim, 2)
    active = []
    peak = []

    def worker(i):
        yield sem.acquire()
        active.append(i)
        peak.append(len(active))
        yield 1.0
        active.remove(i)
        sem.release()

    for i in range(5):
        sim.spawn(worker(i))
    sim.run()
    assert max(peak) == 2
    assert sim.now == pytest.approx(3.0)


def test_semaphore_fifo_fairness():
    sim = Simulator()
    sem = Semaphore(sim, 1)
    order = []

    def worker(i):
        yield sem.acquire()
        order.append(i)
        yield 1.0
        sem.release()

    for i in range(4):
        sim.spawn(worker(i))
    sim.run()
    assert order == [0, 1, 2, 3]


def test_semaphore_guard_release_idempotent():
    sim = Simulator()
    sem = Semaphore(sim, 1)

    def proc():
        guard = yield from sem.held()
        guard.release()
        guard.release()  # second release must be a no-op

    sim.spawn(proc())
    sim.run()
    assert sem.available == 1


def test_semaphore_held_free_credit_costs_no_event():
    sim = Simulator()
    sem = Semaphore(sim, 1)
    pushes = []

    def proc():
        before = sim._seq  # every heap push bumps it
        guard = yield from sem.held()
        assert sem.available == 0
        guard.release()
        pushes.append(sim._seq - before)

    sim.spawn(proc())
    sim.run()
    assert pushes == [0]
    assert sem.available == 1


def test_semaphore_held_under_contention_wakes_fifo():
    sim = Simulator()
    sem = Semaphore(sim, 1)
    order = []

    def worker(i):
        guard = yield from sem.held()
        order.append((i, sim.now))
        yield 1.0
        guard.release()

    for i in range(3):
        sim.spawn(worker(i))
    # A newcomer arriving in the instant a credit changes hands must
    # queue behind the waiters, not take the fast path past them.
    sim.schedule(1.0, sim.spawn, worker(3))
    sim.run()
    assert order == [(0, 0.0), (1, 1.0), (2, 2.0), (3, 3.0)]
    assert sem.available == 1


def test_lock_is_binary():
    sim = Simulator()
    lock = Lock(sim)
    assert lock.available == 1


def test_rng_streams_independent_and_reproducible():
    from repro.sim import RngStreams

    streams_a = RngStreams(seed=7)
    streams_b = RngStreams(seed=7)
    draw_a1 = streams_a.stream("alpha").random(4).tolist()
    # interleave another stream in b before alpha: must not perturb alpha
    streams_b.stream("beta").random(100)
    draw_b1 = streams_b.stream("alpha").random(4).tolist()
    assert draw_a1 == draw_b1


def test_rng_uniform_and_integer_ranges():
    from repro.sim import RngStreams

    streams = RngStreams(seed=1)
    for _ in range(100):
        value = streams.uniform("u", 2.0, 3.0)
        assert 2.0 <= value < 3.0
        integer = streams.integer("i", 5, 9)
        assert 5 <= integer < 9

