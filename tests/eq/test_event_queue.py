"""Unit tests for the event/event-queue model (``repro.daos.eq``).

Pure-simulator tests: operations are plain task generators with known
delays, so lifecycle, windowing and reap-order claims are checked
without booting a storage stack.
"""

import pytest

from repro.daos.eq import (
    EV_ABORTED,
    EV_COMPLETED,
    EV_RUNNING,
    EventQueue,
    Inline,
)
from repro.errors import DerBusy, DerCanceled, DerInval
from repro.sim import Simulator


def op(sim, delay, value=None, record=None):
    """A fake data-plane op: sleep ``delay``, optionally log, return."""

    def gen():
        yield delay
        if record is not None:
            record.append((sim.now, value))
        return value

    return gen()


def run_task(sim, gen):
    task = sim.spawn(gen)
    sim.run()
    assert task.done
    if task.error is not None:
        raise task.error
    return task.result


# ---------------------------------------------------------------- lifecycle
def test_launch_completes_and_holds_result():
    sim = Simulator()
    eq = EventQueue(sim, name="eq")

    def submitter():
        event = yield from eq.submit(op(sim, 1.5, "payload"), name="w0")
        assert event.state == EV_RUNNING
        assert not event.done
        with pytest.raises(DerBusy):
            event.result
        return event

    event = run_task(sim, submitter())
    assert event.state == EV_COMPLETED
    assert event.result == "payload"
    assert event.submit_time == 0.0
    assert event.complete_time == 1.5
    assert event.elapsed == 1.5


def test_poll_reaps_in_completion_order():
    """``drain`` is the blocking reap (``daos_eq_poll`` until empty)."""
    sim = Simulator()
    eq = EventQueue(sim, name="eq")

    def submitter():
        events = []
        for delay, value in ((3.0, "slow"), (1.0, "fast"), (2.0, "mid")):
            events.append((yield from eq.submit(op(sim, delay, value))))
        return events, (yield from eq.drain())

    (slow, fast, mid), reaped = run_task(sim, submitter())
    assert reaped == [fast, mid, slow]
    assert [e.result for e in reaped] == ["fast", "mid", "slow"]


def test_error_surfaces_on_result_not_at_launch():
    sim = Simulator()
    eq = EventQueue(sim, name="eq")

    def bad():
        yield 1.0
        raise DerInval("broken op")

    def submitter():
        return (yield from eq.submit(bad()))

    event = run_task(sim, submitter())  # the error is delivered via the event
    assert event.state == EV_COMPLETED
    assert isinstance(event.error, DerInval)
    with pytest.raises(DerInval):
        event.result


def test_abort_cancels_and_marks_aborted():
    sim = Simulator()
    eq = EventQueue(sim, name="eq")
    record = []

    def closer():
        event = yield from eq.submit(op(sim, 5.0, "x", record))
        yield from eq.close()  # aborts what is in flight
        return event

    event = run_task(sim, closer())
    assert event.state == EV_ABORTED
    assert record == []  # op never reached its completion point
    with pytest.raises(DerCanceled):
        event.result


def test_close_aborts_everything_in_flight():
    sim = Simulator()
    eq = EventQueue(sim, name="eq")

    def closer():
        events = []
        for i in range(4):
            events.append((yield from eq.submit(op(sim, float(i + 1)))))
        yield from eq.close()
        return events

    events = run_task(sim, closer())
    assert all(e.state == EV_ABORTED for e in events)

    def late():
        try:
            yield from eq.submit(op(sim, 1.0))
        except DerInval:
            return "closed"
        return "submitted"

    assert run_task(sim, late()) == "closed"


# ------------------------------------------------------------------ window
def test_submit_enforces_inflight_window():
    sim = Simulator()
    eq = EventQueue(sim, depth=2, name="eq")
    live, peaks = [0], []

    def tracked():
        live[0] += 1
        peaks.append(live[0])
        yield 1.0
        live[0] -= 1

    def submitter():
        for _ in range(6):
            yield from eq.submit(tracked())
        yield from eq.drain()

    run_task(sim, submitter())
    assert max(peaks) == 2


def test_depth_one_serializes():
    sim = Simulator()
    eq = EventQueue(sim, depth=1, name="eq")
    record = []

    def submitter():
        for i in range(3):
            yield from eq.submit(op(sim, 1.0, i, record))
        yield from eq.drain()

    run_task(sim, submitter())
    # one at a time: completions at 1.0, 2.0, 3.0 — the blocking cadence
    assert record == [(1.0, 0), (2.0, 1), (3.0, 2)]


def test_unbounded_depth_runs_all_concurrently():
    sim = Simulator()
    eq = EventQueue(sim, name="eq")
    record = []

    def submitter():
        for i in range(3):
            yield from eq.submit(op(sim, 1.0, i, record))
        yield from eq.drain()

    run_task(sim, submitter())
    assert [t for t, _ in record] == [1.0, 1.0, 1.0]


def test_bad_depth_rejected():
    sim = Simulator()
    with pytest.raises(DerInval):
        EventQueue(sim, depth=0, name="eq")


# ------------------------------------------------------------- determinism
def test_reap_order_is_seed_deterministic():
    def one_run():
        sim = Simulator()
        eq = EventQueue(sim, depth=4, name="eq")
        order = []

        def submitter():
            # staggered delays so completions interleave across the window
            for i in range(12):
                yield from eq.submit(op(sim, ((i * 7) % 5 + 1) * 0.25, i))
                for e in eq.try_reap():
                    order.append((e.name, sim.now))
            for e in (yield from eq.drain()):
                order.append((e.name, sim.now))

        run_task(sim, submitter())
        return order

    assert one_run() == one_run()


# ------------------------------------------------------------ blocking twin
def test_inline_submit_makes_no_heap_push():
    def pushes(through_inline):
        sim = Simulator()
        eq = Inline(sim)

        def submitter():
            for i in range(3):
                if through_inline:
                    yield from eq.submit(op(sim, 1.0, i))
                else:
                    yield from op(sim, 1.0, i)

        run_task(sim, submitter())
        return sim._seq, sim.now

    # the ops' own sleeps are the only pushes, as for the bare calls
    assert pushes(True) == pushes(False)


def test_inline_error_raises_at_submit_not_at_reap():
    sim = Simulator()
    eq = Inline(sim)

    def bad():
        yield 1.0
        raise DerInval("broken op")

    def submitter():
        try:
            yield from eq.submit(bad())
        except DerInval:
            return sim.now, eq.try_reap()
        return None

    assert run_task(sim, submitter()) == (1.0, [])


def test_inline_elapsed_is_the_blocking_call_duration():
    sim = Simulator()
    eq = Inline(sim)
    record = []

    def submitter():
        yield 0.5
        event = yield from eq.submit(op(sim, 1.5, "payload", record))
        return event

    event = run_task(sim, submitter())
    assert event.state == EV_COMPLETED
    assert event.result == "payload"
    assert (event.submit_time, event.complete_time) == (0.5, 2.0)
    assert event.elapsed == 1.5
    assert record == [(2.0, "payload")]


def test_inline_reaps_in_submit_order_and_close_leaves_nothing():
    sim = Simulator()
    eq = Inline(sim)

    def submitter():
        for i in range(3):
            yield from eq.submit(op(sim, 1.0, i), name=f"a{i}")
        first = [e.name for e in eq.try_reap()]
        for i in range(2):
            yield from eq.submit(op(sim, 1.0, i), name=f"b{i}")
        drained = [e.name for e in (yield from eq.drain())]
        yield from eq.submit(op(sim, 1.0), name="c")
        yield from eq.close()
        return first, drained, eq.try_reap()

    assert run_task(sim, submitter()) == (
        ["a0", "a1", "a2"], ["b0", "b1"], []
    )


def test_the_queue_and_its_blocking_twin_have_one_surface():
    def public(cls):
        return {name for name in vars(cls) if not name.startswith("_")}

    assert public(EventQueue) == public(Inline) == {
        "submit", "try_reap", "drain", "close"}
