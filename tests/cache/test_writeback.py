"""WriteBehind: coalescing, watermark, latched errors, typed surfacing."""

import pytest

from repro.cache import writeback
from repro.cache.writeback import DIRTY_GAUGE, WriteBehind
from repro.daos.vos.payload import PatternPayload
from repro.errors import CacheWritebackError, DerTimedOut


class FakeGauge:
    def __init__(self):
        self.value = 0.0

    def add(self, now, delta):
        self.value += delta


class FakeMetrics:
    def __init__(self):
        self.counters = {}
        self.gauges = {}
        self.observed = []

    def incr(self, name, amount=1.0):
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def gauge(self, name):
        return self.gauges.setdefault(name, FakeGauge())

    def observe(self, name, value):
        self.observed.append((name, value))


class FakeSim:
    def __init__(self, metrics=True):
        self.now = 0.0
        self.metrics = FakeMetrics() if metrics else None


def drive(gen):
    """Run a task generator to completion outside the simulator."""
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


def pat(origin, nbytes):
    return PatternPayload(13, origin, nbytes)


def make_wb():
    return WriteBehind(FakeSim(), path="/f")


def test_buffer_coalesces_sequential_writes():
    wb = make_wb()
    for i in range(8):
        wb.buffer(i * 100, pat(i * 100, 100))
    assert wb.dirty_bytes == 800
    assert wb.pending() == [(0, 800)]  # one merged extent, not eight


def test_watermark_threshold(monkeypatch):
    monkeypatch.setattr(writeback, "WB_WATERMARK", 300)
    wb = make_wb()
    wb.buffer(0, pat(0, 200))
    assert not wb.need_flush
    wb.buffer(200, pat(200, 100))
    assert wb.need_flush


def test_flush_issues_coalesced_writes_capped_at_max_extent(monkeypatch):
    monkeypatch.setattr(writeback, "WB_MAX_EXTENT", 256)
    wb = make_wb()
    for i in range(6):
        wb.buffer(i * 100, pat(i * 100, 100))
    calls = []

    def write_fn(offset, payload):
        calls.append((offset, payload.nbytes))
        yield 0.0

    assert drive(wb.flush(write_fn)) is True
    assert wb.dirty_bytes == 0
    assert calls == [(0, 256), (256, 256), (512, 88)]
    got = b"".join(pat(off, n).materialize() for off, n in calls)
    assert got == pat(0, 600).materialize()


def test_flush_failure_keeps_data_and_latches():
    wb = make_wb()
    wb.buffer(0, pat(0, 500))

    def broken(offset, payload):
        raise DerTimedOut("engine down")
        yield  # pragma: no cover

    assert drive(wb.flush(broken)) is False
    assert wb.dirty_bytes == 500  # nothing lost
    assert isinstance(wb.error, DerTimedOut)
    with pytest.raises(CacheWritebackError) as err:
        wb.raise_pending()
    assert err.value.path == "/f"
    assert err.value.lost_bytes == 500
    assert err.value.pending == [(0, 500)]
    assert isinstance(err.value.cause, DerTimedOut)


def test_retry_after_recovery_clears_latch():
    wb = make_wb()
    wb.buffer(0, pat(0, 100))
    attempts = {"n": 0}

    def flaky(offset, payload):
        attempts["n"] += 1
        if attempts["n"] == 1:
            raise DerTimedOut("first try fails")
        yield 0.0

    assert drive(wb.flush(flaky)) is False
    assert drive(wb.flush(flaky)) is True
    assert wb.error is None
    assert wb.dirty_bytes == 0
    wb.raise_pending()  # no-op once clean


def test_dirty_gauge_tracks_buffer_and_flush():
    wb = make_wb()
    gauge = wb.sim.metrics.gauge(DIRTY_GAUGE)
    wb.buffer(0, pat(0, 300))
    assert gauge.value == 300

    def ok(offset, payload):
        yield 0.0

    drive(wb.flush(ok))
    assert gauge.value == 0
    counters = wb.sim.metrics.counters
    assert counters["cache.wb.flush_writes"] == 1
    assert counters["cache.wb.flushed_bytes"] == 300
    assert any(n == "cache.wb.flush_latency"
               for n, _v in wb.sim.metrics.observed)


def test_overlay_serves_read_your_writes():
    wb = make_wb()
    wb.buffer(100, pat(100, 50))
    cover = wb.overlay(80, 100)
    shape = [(s, n, e is None) for s, n, e in cover]
    assert shape == [(80, 20, True), (100, 50, False), (150, 30, True)]
    assert wb.high_water() == 150
