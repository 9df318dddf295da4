"""Unit tests for the QoS token bucket (``repro.qos``) and the rebuild
bottleneck cap."""

import pytest

from repro.errors import DerInval
from repro.qos import TokenBucket
from repro.rebuild.scheduler import REBUILD_FRACTION, rebuild_cap
from repro.sim.core import Simulator


class _Link:
    def __init__(self, capacity):
        self.capacity = capacity


# --------------------------------------------------------------- bottleneck
# The rebuild cap is the one bottleneck rule in the tree; the tenant QoS
# layer does not share it. These cases pin rebuild_cap.
def test_bottleneck_cap_picks_binding_link():
    links = [(_Link(100.0), 1.0), (_Link(400.0), 8.0), (_Link(60.0), 1.0)]
    # binding ratio is 400/8 = 50; a quarter of that is 12.5
    assert rebuild_cap(links) == pytest.approx(12.5)


def test_bottleneck_cap_ignores_zero_weights():
    links = [(_Link(10.0), 0.0)]
    assert rebuild_cap(links) is None
    assert rebuild_cap([]) is None


def test_rebuild_throttle_is_a_thin_wrapper():
    """rebuild_cap is exactly ``REBUILD_FRACTION * min(capacity /
    weight)``."""
    links = [
        (_Link(3.337e9), 1.0),
        (_Link(7.5e9), 2.25),
        (_Link(11.2e9), 3.125),
    ]
    expected = REBUILD_FRACTION * min(
        link.capacity / weight for link, weight in links
    )
    assert rebuild_cap(links) == expected  # exact float equality


# --------------------------------------------------------------- token bucket
def test_bucket_validates_parameters():
    sim = Simulator()
    with pytest.raises(DerInval):
        TokenBucket(sim, rate=0.0, burst=10.0)
    with pytest.raises(DerInval):
        TokenBucket(sim, rate=-5.0, burst=10.0)
    with pytest.raises(DerInval):
        TokenBucket(sim, rate=1.0, burst=0.0)


def test_bucket_starts_full_and_acquire_depletes():
    sim = Simulator()
    bucket = TokenBucket(sim, rate=100.0, burst=50.0)
    assert bucket.level == 50.0
    assert sim.run_until_complete(sim.spawn(bucket.acquire(30.0))) == 0.0
    assert bucket.level == pytest.approx(20.0)
    # only 20 left: taking 30 goes 10 into debt and waits it off
    assert sim.run_until_complete(
        sim.spawn(bucket.acquire(30.0))) == pytest.approx(0.1)


def test_bucket_refills_at_rate_capped_by_burst():
    sim = Simulator()
    bucket = TokenBucket(sim, rate=10.0, burst=40.0)
    assert sim.run_until_complete(sim.spawn(bucket.acquire(40.0))) == 0.0

    def wait_then_look(delay):
        yield delay
        return bucket.level

    task = sim.spawn(wait_then_look(2.0))
    assert sim.run_until_complete(task) == pytest.approx(20.0)
    task = sim.spawn(wait_then_look(100.0))
    assert sim.run_until_complete(task) == pytest.approx(40.0)  # burst ceiling


def test_acquire_waits_exactly_the_deficit():
    sim = Simulator()
    bucket = TokenBucket(sim, rate=10.0, burst=10.0)

    def consumer():
        w0 = yield from bucket.acquire(10.0)  # free: bucket starts full
        w1 = yield from bucket.acquire(25.0)  # deficit of 25 -> 2.5 s
        return w0, w1, sim.now

    task = sim.spawn(consumer())
    w0, w1, t = sim.run_until_complete(task)
    assert w0 == 0.0
    assert w1 == pytest.approx(2.5)
    assert t == pytest.approx(2.5)


def test_concurrent_acquirers_share_the_rate():
    """N concurrent equal acquirers finish at cumulative-debt times."""
    sim = Simulator()
    bucket = TokenBucket(sim, rate=100.0, burst=100.0)
    done = []

    def consumer(name):
        yield from bucket.acquire(100.0)
        done.append((name, sim.now))

    for i in range(3):
        sim.spawn(consumer(i))
    sim.run()
    # first acquire drains the full bucket instantly; each later one
    # waits for its own 100-token debt on top of the previous.
    assert done == [(0, 0.0), (1, pytest.approx(1.0)), (2, pytest.approx(2.0))]


def test_bucket_long_run_rate_is_bounded():
    sim = Simulator()
    bucket = TokenBucket(sim, rate=1000.0, burst=200.0)
    issued = []

    def consumer():
        total = 0.0
        while sim.now < 1.0:
            yield from bucket.acquire(50.0)
            total += 50.0
        return total

    task = sim.spawn(consumer())
    total = sim.run_until_complete(task)
    # burst + rate * horizon, with a one-acquire slop
    assert total <= 200.0 + 1000.0 * 1.0 + 50.0
    assert total >= 1000.0  # and the rate is actually usable


def test_unlimited_bucket_is_free():
    sim = Simulator()
    bucket = TokenBucket(sim, rate=None, burst=1.0)

    def consumer():
        waited = yield from bucket.acquire(1e12)
        return waited, sim.now

    task = sim.spawn(consumer())
    assert sim.run_until_complete(task) == (0.0, 0.0)


def test_acquire_is_deterministic():
    def run():
        sim = Simulator()
        bucket = TokenBucket(sim, rate=333.0, burst=97.0)
        times = []

        def consumer(n):
            yield from bucket.acquire(n)
            times.append((n, sim.now))

        for n in (13.0, 55.0, 8.0, 90.0, 41.0):
            sim.spawn(consumer(n))
        sim.run()
        return times

    assert run() == run()
