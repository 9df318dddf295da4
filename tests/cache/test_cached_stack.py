"""Integration: the caching tier wired through DFS and DFuse.

Runs real workloads over a small cluster in the three cache modes and
checks (a) data correctness under caching, (b) the aggregation wins the
subsystem exists for (writeback faster than pass-through, read-ahead
hits), and (c) instrumentation shows up in the metrics registry.
"""

import pytest

from repro.cache.config import CacheConfig
from repro.cluster import small_cluster
from repro.daos.vos.payload import PatternPayload
from repro.dfs import Dfs
from repro.dfuse import DFuseMount
from repro.units import KiB, MiB


@pytest.fixture()
def cluster():
    return small_cluster(server_nodes=2, client_nodes=2,
                         targets_per_engine=2)


def mount_dfs(cluster, mode, name):
    """Task helper factory: a fresh container + Dfs in ``mode``."""
    client = cluster.new_client(0)

    def setup():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container(name, oclass="S2")
        cache = (CacheConfig(mode=mode, capacity="8m")
                 if mode != "none" else None)
        return (yield from Dfs.mount(cont, cache=cache))

    return cluster.run(setup())


def pat(origin, nbytes, seed=21):
    return PatternPayload(seed, origin, nbytes)


# ------------------------------------------------------------- correctness
@pytest.mark.parametrize("mode", ["none", "readonly", "writeback"])
def test_dfs_write_read_roundtrip(cluster, mode):
    dfs = mount_dfs(cluster, mode, f"rt-{mode}")

    def go():
        f = yield from dfs.open_file("/f", create=True)
        for i in range(8):
            yield from f.write(i * 256 * KiB, pat(i * 256 * KiB, 256 * KiB))
        yield from f.sync()
        out = []
        for i in range(8):
            part = yield from f.read(i * 256 * KiB, 256 * KiB)
            out.append(part.materialize())
        yield from f.flush()
        f.close()
        return b"".join(out)

    assert cluster.run(go()) == pat(0, 2 * MiB).materialize()


@pytest.mark.parametrize("mode", ["readonly", "writeback"])
def test_dfuse_roundtrip_and_stat(cluster, mode):
    dfs = mount_dfs(cluster, mode, f"fuse-{mode}")
    mount = DFuseMount(dfs, cache=dfs.cache)

    def go():
        fh = yield from mount.open("/f", ("w", "creat"))
        yield from fh.pwrite(0, pat(0, 3 * MiB))
        yield from fh.fsync()
        # read twice: second pass must come from the page cache
        first = yield from fh.pread(0, 3 * MiB)
        second = yield from fh.pread(0, 3 * MiB)
        st = yield from mount.stat("/f")
        st2 = yield from mount.stat("/f")  # attr-cache hit
        yield from fh.close()
        return first.materialize(), second.materialize(), st.size, st2.size

    first, second, size, size2 = cluster.run(go())
    expected = pat(0, 3 * MiB).materialize()
    assert first == expected and second == expected
    assert size == 3 * MiB and size2 == 3 * MiB


def test_writeback_read_your_writes_before_flush(cluster):
    dfs = mount_dfs(cluster, "writeback", "ryw")

    def go():
        f = yield from dfs.open_file("/f", create=True)
        yield from f.write(0, pat(0, 64 * KiB))
        assert f.wb.dirty_bytes == 64 * KiB  # still buffered
        back = yield from f.read(0, 64 * KiB)
        data = back.materialize()
        yield from f.sync()
        assert f.wb.dirty_bytes == 0
        f.close()
        return data

    assert cluster.run(go()) == pat(0, 64 * KiB).materialize()


def test_writeback_dirty_data_survives_lru_pressure(cluster):
    """Dirty write-behind data is never evicted — only the (clean) page
    cache obeys the LRU budget."""
    dfs = mount_dfs(cluster, "writeback", "pressure")
    mount = DFuseMount(dfs, cache=dfs.cache)

    def go():
        fh = yield from mount.open("/f", ("w", "creat"))
        # dirty bytes exceed the 8 MiB page budget, but live in the
        # write-behind buffer, not the page cache
        yield from fh.pwrite(0, pat(0, 12 * MiB))
        back = yield from fh.pread(0, 12 * MiB)
        yield from fh.close()
        return back.materialize()

    assert cluster.run(go()) == pat(0, 12 * MiB).materialize()


def test_truncate_invalidates_other_handle(cluster):
    dfs = mount_dfs(cluster, "readonly", "trunc-inval")

    def go():
        a = yield from dfs.open_file("/f", create=True)
        yield from a.write(0, pat(0, MiB))
        b = yield from dfs.open_file("/f")
        before = yield from b.get_size()
        yield from a.truncate(64 * KiB)
        after = yield from b.read(0, MiB)  # epoch bump forces re-query
        a.close()
        b.close()
        return before, after.nbytes

    before, after = cluster.run(go())
    assert before == MiB
    assert after == 64 * KiB


# ------------------------------------------------------------- performance
def timed_fpp_write(cluster, mode, nbytes=4 * MiB, xfer=256 * KiB):
    dfs = mount_dfs(cluster, mode, f"perf-{mode}")
    mount = DFuseMount(dfs, cache=dfs.cache)
    sim = cluster.sim

    def go():
        fh = yield from mount.open("/f", ("w", "creat"))
        t0 = sim.now
        for off in range(0, nbytes, xfer):
            yield from fh.pwrite(off, pat(off, xfer))
        yield from fh.fsync()
        elapsed = sim.now - t0
        yield from fh.close()
        return elapsed

    return cluster.run(go())


def test_writeback_beats_passthrough_on_dfuse_writes():
    base = timed_fpp_write(
        small_cluster(server_nodes=2, client_nodes=2, targets_per_engine=2),
        "none",
    )
    cached = timed_fpp_write(
        small_cluster(server_nodes=2, client_nodes=2, targets_per_engine=2),
        "writeback",
    )
    # coalescing 16 transfers into large contiguous writes must pay
    # measurably less per-op overhead than pass-through
    assert cached < base * 0.9, (cached, base)


def test_readahead_serves_sequential_stream(cluster):
    dfs = mount_dfs(cluster, "readonly", "ra-seq")
    cluster.observe(tracing=False)

    def go():
        f = yield from dfs.open_file("/f", create=True)
        yield from f.write(0, pat(0, 4 * MiB))
        f.close()
        g = yield from dfs.open_file("/f")
        for off in range(0, 4 * MiB, 128 * KiB):
            part = yield from g.read(off, 128 * KiB)
            assert part.nbytes == 128 * KiB
        g.close()
        return g.ra.prefetched_bytes

    prefetched = cluster.run(go())
    assert prefetched > 0
    counters = cluster.sim.metrics.counters
    ra_hits = sum(
        c.value for n, c in counters.items()
        if n.startswith("cache.ra.hit_bytes{node=")
    )
    assert ra_hits > 0


# ------------------------------------------------------------- metrics/obs
def test_cache_metrics_and_spans_flow_through_obs(cluster):
    cluster.observe(tracing=True)
    dfs = mount_dfs(cluster, "writeback", "obs")
    mount = DFuseMount(dfs, cache=dfs.cache)

    def go():
        fh = yield from mount.open("/f", ("w", "creat"))
        yield from fh.pwrite(0, pat(0, 2 * MiB))
        yield from fh.fsync()
        yield from fh.pread(0, 2 * MiB)
        yield from fh.pread(0, 2 * MiB)
        yield from fh.close()
        return None

    cluster.run(go())
    counters = cluster.sim.metrics.counters
    assert counters["cache.wb.buffered_bytes"].value == 2 * MiB
    assert counters["cache.wb.flush_writes"].value >= 1
    page_hits = sum(
        c.value for n, c in counters.items()
        if n.startswith("cache.page.hit_bytes{node=")
    )
    assert page_hits >= 2 * MiB
    assert "cache.wb.flush_latency" in cluster.sim.metrics.histograms
    layers = {span.layer for span in cluster.sim.tracer.spans}
    assert "cache" in layers
