"""PageCache: LRU under a byte budget, epoch invalidation, metrics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.pages import PageCache
from repro.daos.vos.payload import PatternPayload


class FakeMetrics:
    def __init__(self):
        self.counters = {}

    def incr(self, name, amount=1.0):
        self.counters[name] = self.counters.get(name, 0.0) + amount


class FakeSim:
    def __init__(self):
        self.metrics = FakeMetrics()


def pat(origin, nbytes, seed=3):
    return PatternPayload(seed, origin, nbytes)


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        PageCache(0)


def test_miss_then_hit():
    sim = FakeSim()
    cache = PageCache(1000, sim)
    assert [seg for seg in cache.lookup("f", 0, 0, 100)] == [(0, 100, None)]
    cache.insert("f", 0, 0, pat(0, 100))
    cover = cache.lookup("f", 0, 0, 100)
    assert len(cover) == 1
    assert cover[0][2].materialize() == pat(0, 100).materialize()
    c = sim.metrics.counters
    assert c["cache.page.miss_bytes"] == 100
    assert c["cache.page.hit_bytes"] == 100


def test_partial_hit_returns_holes():
    cache = PageCache(1000)
    cache.insert("f", 0, 50, pat(50, 50))
    cover = cache.lookup("f", 0, 0, 150)
    shape = [(s, n, p is None) for s, n, p in cover]
    assert shape == [(0, 50, True), (50, 50, False), (100, 50, True)]


def test_lru_evicts_oldest_first():
    sim = FakeSim()
    cache = PageCache(300, sim)
    cache.insert("f", 0, 0, pat(0, 100))
    cache.insert("f", 0, 100, pat(100, 100))
    cache.insert("f", 0, 200, pat(200, 100))
    assert cache.used_bytes == 300
    # touch the oldest extent so the middle one becomes LRU
    cache.lookup("f", 0, 0, 100)
    cache.insert("f", 0, 300, pat(300, 100))
    assert cache.used_bytes == 300
    assert sim.metrics.counters["cache.page.evictions"] == 1
    # [100,200) was evicted; [0,100) survived its touch
    assert cache.lookup("f", 0, 100, 100)[0][2] is None
    assert cache.lookup("f", 0, 0, 100)[0][2] is not None


def test_eviction_spans_files():
    cache = PageCache(200)
    cache.insert("a", 0, 0, pat(0, 100))
    cache.insert("b", 0, 0, pat(0, 100, seed=9))
    cache.insert("c", 0, 0, pat(0, 100, seed=11))
    assert cache.used_bytes == 200
    assert cache.lookup("a", 0, 0, 100)[0][2] is None  # oldest, evicted
    assert cache.lookup("b", 0, 0, 100)[0][2] is not None


def test_oversized_insert_keeps_budget_tail():
    cache = PageCache(100)
    cache.insert("f", 0, 0, pat(0, 250))
    assert cache.used_bytes == 100
    # the most recent bytes of the stream survive
    cover = cache.lookup("f", 0, 150, 100)
    assert cover[0][2].materialize() == pat(150, 100).materialize()
    assert cache.lookup("f", 0, 0, 150)[0][2] is None


def test_epoch_bump_invalidates_file():
    sim = FakeSim()
    cache = PageCache(1000, sim)
    cache.insert("f", 0, 0, pat(0, 100))
    cache.insert("g", 0, 0, pat(0, 100))
    assert cache.lookup("f", 1, 0, 100)[0][2] is None  # stale epoch dropped
    assert cache.used_bytes == 100  # g untouched
    assert sim.metrics.counters["cache.page.epoch_invalidations"] == 1
    # data cached under the new epoch serves normally
    cache.insert("f", 1, 0, pat(0, 100, seed=5))
    assert cache.lookup("f", 1, 0, 100)[0][2] is not None


def test_invalidate_file_and_range():
    cache = PageCache(1000)
    cache.insert("f", 0, 0, pat(0, 100))
    cache.invalidate_range("f", 25, 50)
    cover = cache.lookup("f", 0, 0, 100)
    shape = [(s, n, p is None) for s, n, p in cover]
    assert shape == [(0, 25, False), (25, 50, True), (75, 25, False)]
    assert cache.used_bytes == 50
    cache.invalidate_file("f")
    assert cache.used_bytes == 0
    assert cache.lookup("f", 0, 0, 100)[0][2] is None


def test_overwrite_insert_accounting_stays_consistent():
    cache = PageCache(1000)
    cache.insert("f", 0, 0, pat(0, 100))
    cache.insert("f", 0, 50, pat(50, 100, seed=8))  # overlaps the first
    assert cache.used_bytes == 150
    got = b"".join(
        p.materialize() for _s, _n, p in cache.lookup("f", 0, 0, 150)
    )
    expected = (
        pat(0, 50).materialize() + pat(50, 100, seed=8).materialize()
    )
    assert got == expected


def test_trimmed_extents_keep_their_lru_slot():
    """A write-through that trims a cached extent must leave the
    survivors evictable: they used to drop out of the LRU ring, pinning
    80 B for good and making the next insert evict itself."""
    cache = PageCache(100)
    cache.insert("a", 0, 0, pat(0, 100))
    cache.invalidate_range("a", 40, 20)
    assert cache.used_bytes == 80
    cache.insert("b", 0, 0, pat(0, 100, seed=9))
    assert cache.used_bytes <= cache.capacity
    # the newest data is the data that stays
    assert cache.lookup("b", 0, 0, 100)[0][2].materialize() == (
        pat(0, 100, seed=9).materialize()
    )
    assert all(p is None for _s, _n, p in cache.lookup("a", 0, 0, 100))


def test_partially_overwritten_insert_stays_evictable():
    cache = PageCache(150)
    cache.insert("f", 0, 0, pat(0, 100))
    cache.insert("f", 0, 50, pat(50, 100, seed=8))  # trims the first to 50 B
    assert cache.used_bytes == 150
    cache.insert("g", 0, 0, pat(0, 50))  # over budget: the trimmed one goes
    assert cache.used_bytes == 150
    shape = [(s, n, p is None) for s, n, p in cache.lookup("f", 0, 0, 150)]
    assert shape == [(0, 50, True), (50, 100, False)]


_KEYS = st.sampled_from(["a", "b", "c"])
_STEPS = st.one_of(
    st.tuples(st.just("insert"), _KEYS, st.integers(0, 150), st.integers(0, 90)),
    st.tuples(st.just("lookup"), _KEYS, st.integers(0, 150), st.integers(0, 90)),
    st.tuples(st.just("invalidate_range"), _KEYS, st.integers(0, 150),
              st.integers(0, 90)),
    st.tuples(st.just("invalidate_file"), _KEYS),
    st.tuples(st.just("bump_epoch"), _KEYS),
)


@settings(max_examples=100, deadline=None)
@given(steps=st.lists(_STEPS, max_size=50), capacity=st.integers(1, 200))
def test_property_budget_and_eviction_reach(steps, capacity):
    """After every step the byte budget holds, the books match what is
    held, every held extent belongs to a ring slot (so eviction can reach
    it), and a hit returns the bytes last inserted there."""
    cache = PageCache(capacity)
    epochs = {"a": 0, "b": 0, "c": 0}
    model = {key: {} for key in epochs}  # key -> {offset: byte}, a superset
    for step, key, *args in steps:
        if step == "insert":
            start, nbytes = args
            payload = pat(start, nbytes, seed=len(model[key]) % 5)
            cache.insert(key, epochs[key], start, payload)
            model[key].update(enumerate(payload.materialize(), start))
        elif step == "lookup":
            for seg, _n, hit in cache.lookup(key, epochs[key], *args):
                if hit is not None:
                    assert hit.materialize() == bytes(
                        model[key][i] for i in range(seg, seg + hit.nbytes)
                    )
        elif step == "invalidate_range":
            cache.invalidate_range(key, *args)
            for i in range(args[0], sum(args)):
                model[key].pop(i, None)
        elif step == "invalidate_file":
            cache.invalidate_file(key)
            model[key].clear()
        else:
            epochs[key] += 1  # next access under the new epoch drops the file
            cache.lookup(key, epochs[key], 0, 1)
            model[key].clear()
        held = [
            (key, ext) for key, view in cache._files.items()
            for ext in view.extents
        ]
        assert cache.used_bytes == sum(ext.length for _k, ext in held)
        assert cache.used_bytes <= capacity
        live = {}
        for key, ext in held:
            slot = cache._lru[ext.epoch]  # KeyError: unreachable by eviction
            assert slot.key == key
            assert slot.start <= ext.offset and ext.end <= slot.stop
            live[ext.epoch] = live.get(ext.epoch, 0) + ext.length
        assert live == {eid: slot.live for eid, slot in cache._lru.items()}
