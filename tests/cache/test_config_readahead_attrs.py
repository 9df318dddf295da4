"""CacheConfig validation/budgeting, ReadAhead detection, TtlCache."""

import pytest

from repro.cache.attrs import TtlCache
from repro.cache.config import (NODE_MEMORY_FRACTION, READAHEAD_MIN_RUN,
                                READAHEAD_WINDOW, CacheConfig)
from repro.cache.readahead import ReadAhead
from repro.hardware.specs import NodeSpec
from repro.units import GiB, KiB, MiB


class FakeSim:
    def __init__(self):
        self.now = 0.0
        self.metrics = None


# ------------------------------------------------------------------ config
def test_default_mode_is_zero_cost_none():
    cfg = CacheConfig()
    assert cfg.mode == "none"
    assert not cfg.enabled
    assert not cfg.writeback


def test_bad_mode_rejected():
    with pytest.raises(ValueError):
        CacheConfig(mode="writethrough")


def test_size_fields_accept_suffix_strings():
    cfg = CacheConfig(mode="readonly", capacity="256m")
    assert cfg.capacity == 256 * MiB


def test_resolve_budget_from_node_memory_split_by_ppn():
    spec = NodeSpec(memory=192 * GiB)
    cfg = CacheConfig(mode="readonly").resolve(spec, ppn=16)
    assert cfg.capacity == int(192 * GiB * NODE_MEMORY_FRACTION) // 16
    assert cfg.copy_bw == spec.memory_copy_bw
    # explicit capacity wins over the hardware model
    explicit = CacheConfig(mode="readonly", capacity=MiB).resolve(spec, 16)
    assert explicit.capacity == MiB


def test_resolve_floors_tiny_budgets():
    spec = NodeSpec(memory=MiB)
    cfg = CacheConfig(mode="readonly").resolve(spec, ppn=64)
    assert cfg.capacity == 64 * KiB


def test_copy_cost_scales_with_bandwidth():
    # the node's copy bandwidth, whatever the capacity
    for capacity in (0, MiB):
        cfg = CacheConfig(mode="readonly", capacity=capacity).resolve(
            NodeSpec(memory_copy_bw=1e9))
        assert cfg.copy_cost(1_000_000) == pytest.approx(1e-3)


# ------------------------------------------------------------------ readahead
def test_sequential_detection_needs_min_run():
    eng = ReadAhead()
    for i in range(READAHEAD_MIN_RUN - 1):
        eng.observe(i * 100, 100)
        assert not eng.sequential and eng.window() == 0
    eng.observe((READAHEAD_MIN_RUN - 1) * 100, 100)
    assert eng.sequential
    assert eng.window() == READAHEAD_WINDOW


def test_random_access_resets_run():
    eng = ReadAhead()
    eng.observe(0, 100)
    eng.observe(100, 100)
    assert eng.sequential
    eng.observe(5000, 100)  # seek
    assert not eng.sequential
    eng.observe(5100, 100)
    assert eng.sequential  # re-detected


def test_backward_read_is_not_sequential():
    eng = ReadAhead()
    eng.observe(1000, 100)
    eng.observe(900, 100)
    assert not eng.sequential


# ------------------------------------------------------------------ ttl cache
def test_ttl_cache_expires_on_sim_clock():
    sim = FakeSim()
    cache = TtlCache(sim, ttl=1.0)
    cache.put("/a", "stat-a")
    assert cache.get("/a") == "stat-a"
    sim.now = 0.9
    assert cache.get("/a") == "stat-a"
    sim.now = 2.1
    assert cache.get("/a") is None  # expired
    assert not cache._entries  # the expired entry is dropped


def test_ttl_cache_invalidate():
    sim = FakeSim()
    cache = TtlCache(sim, ttl=100.0)
    cache.put("/d/x", 1)
    cache.put("/d/y", 2)
    cache.invalidate("/d/x")
    assert cache.get("/d/x") is None
    assert cache.get("/d/y") == 2
