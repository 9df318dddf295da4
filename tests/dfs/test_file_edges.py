"""DfsFile edge cases: cross-handle size visibility, zero-length I/O,
chunk-boundary straddling at the stripe edge, and EOF clamping.

Most of these run in the default ``none`` cache mode — they pin the base
file-layer semantics the caching tier is layered on top of. The size
rule's tests run in every cache mode: what a read returns must not
depend on it.
"""

import pytest

from repro.cache.config import CacheConfig
from repro.cluster import small_cluster
from repro.daos.vos.payload import PatternPayload
from repro.dfs import Dfs
from repro.units import KiB, MiB

CHUNK = 64 * KiB


@pytest.fixture(scope="module")
def cluster():
    return small_cluster(server_nodes=2, client_nodes=2,
                         targets_per_engine=2)


@pytest.fixture(scope="module")
def dfs(cluster):
    client = cluster.new_client(0)

    def setup():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("edges", oclass="S2")
        return (yield from Dfs.mount(cont))

    return cluster.run(setup())


def pat(origin, nbytes, seed=37):
    return PatternPayload(seed, origin, nbytes)


MODES = ["none", "readonly", "writeback"]


@pytest.fixture(scope="module")
def mounted(cluster):
    """One Dfs per cache mode, each on its own S2 container."""
    client = cluster.new_client(0)

    def setup():
        pool = yield from client.connect_pool("tank")
        mounts = {}
        for mode in MODES:
            cont = yield from pool.create_container(f"edges-{mode}",
                                                    oclass="S2")
            cache = (CacheConfig(mode=mode, capacity="8m")
                     if mode != "none" else None)
            mounts[mode] = yield from Dfs.mount(cont, cache=cache)
        return mounts

    return cluster.run(setup())


# --------------------------------------------------- cross-handle size
def test_second_handle_sees_growth_through_first(cluster, dfs):
    """Regression: the per-handle size cache must not go stale when a
    different handle extends the file. Handle B learns size 1 MiB, A
    appends another MiB, and B's next read must return the new bytes
    without reopening or re-stat-ing."""

    def go():
        a = yield from dfs.open_file("/grow", create=True)
        yield from a.write(0, pat(0, MiB))
        b = yield from dfs.open_file("/grow")
        first = yield from b.get_size()  # B's size cache now primed
        yield from a.write(MiB, pat(MiB, MiB))  # growth through A
        tail = yield from b.read(MiB, MiB)  # entirely past B's cached size
        a.close()
        b.close()
        return first, tail.materialize()

    first, tail = cluster.run(go())
    assert first == MiB
    assert tail == pat(MiB, MiB).materialize()


def test_shared_state_is_per_file_not_per_mount(cluster, dfs):
    def go():
        a = yield from dfs.open_file("/sep-a", create=True)
        b = yield from dfs.open_file("/sep-b", create=True)
        yield from a.write(0, pat(0, 4 * KiB))
        size_b = yield from b.get_size()
        a.close()
        b.close()
        return size_b

    assert cluster.run(go()) == 0  # /sep-a's growth must not leak


@pytest.mark.parametrize("mode", MODES)
def test_a_truncate_holds_for_every_handle(cluster, mounted, mode):
    """B and D learn the size, then A truncates. B's next read must stop
    at the new size; D's write, with no read in between, must not put
    D's old size back; every handle, and one opened afterwards, then
    reads the truncated file. Writeback handles flush before another
    handle reads."""
    dfs = mounted[mode]

    def go():
        a = yield from dfs.open_file("/trunc", create=True)
        yield from a.write(0, pat(0, MiB))
        yield from a.flush()
        b = yield from dfs.open_file("/trunc")
        d = yield from dfs.open_file("/trunc")
        before = [(yield from b.get_size()), (yield from d.get_size())]
        yield from a.truncate(64 * KiB)
        after = yield from b.read(0, MiB)
        yield from d.write(0, pat(0, 4 * KiB, seed=5))
        yield from d.flush()
        c = yield from dfs.open_file("/trunc")
        reads = []
        for handle in (a, b, c, d):
            reads.append((yield from handle.read(0, MiB)).materialize())
            handle.close()
        return before, after.nbytes, reads

    before, after, reads = cluster.run(go())
    want = (pat(0, 4 * KiB, seed=5).materialize()
            + pat(0, 64 * KiB).materialize()[4 * KiB:])
    assert (before, after) == ([MiB, MiB], 64 * KiB)
    assert [len(got) for got in reads] == [64 * KiB] * 4
    assert reads == [want] * 4


@pytest.mark.parametrize("mode", MODES)
def test_an_unlink_empties_every_open_handle(cluster, mounted, mode):
    """The unlink punches the object, so a handle still open on it reads
    nothing and reports size 0, whatever it learned before."""
    dfs = mounted[mode]

    def go():
        a = yield from dfs.open_file("/gone", create=True)
        yield from a.write(0, pat(0, 64 * KiB))
        yield from a.flush()
        b = yield from dfs.open_file("/gone")
        yield from b.get_size()
        yield from dfs.unlink("/gone")
        got = yield from b.read(0, 64 * KiB)
        size = yield from b.get_size()
        a.close()
        b.close()
        return got.nbytes, size

    assert cluster.run(go()) == (0, 0)


@pytest.mark.parametrize("mode", MODES)
def test_a_zero_length_write_extends_nothing(cluster, mounted, mode):
    dfs = mounted[mode]

    def go():
        f = yield from dfs.open_file("/zero-ext", create=True)
        wrote = yield from f.write(4 * KiB, b"")
        yield from f.flush()
        size = yield from f.get_size()
        mine = yield from f.read(0, 4 * KiB)
        g = yield from dfs.open_file("/zero-ext")
        theirs = yield from g.read(0, 4 * KiB)
        f.close()
        g.close()
        return wrote, size, mine.nbytes, theirs.nbytes

    assert cluster.run(go()) == (0, 0, 0, 0)


@pytest.mark.parametrize("mode", MODES)
def test_a_handle_reads_its_own_write_over_read_ahead(cluster, mounted, mode):
    """Sequential reads prefetch past the last one; a write through the
    same handle into the prefetched range must win over the prefetch."""
    dfs = mounted[mode]

    def go():
        f = yield from dfs.open_file("/ra-own", create=True,
                                     chunk_size=4 * KiB)
        yield from f.write(0, pat(0, 64 * KiB))
        yield from f.flush()
        for i in range(4):
            yield from f.read(i * 4 * KiB, 4 * KiB)
        yield from f.write(16 * KiB, pat(0, 4 * KiB, seed=5))
        yield from f.flush()
        got = yield from f.read(16 * KiB, 4 * KiB)
        f.close()
        return got.materialize()

    assert cluster.run(go()) == pat(0, 4 * KiB, seed=5).materialize()


# --------------------------------------------------- zero-length I/O
def test_zero_length_write_is_a_noop(cluster, dfs):
    def go():
        f = yield from dfs.open_file("/zero-w", create=True)
        wrote = yield from f.write(0, b"")
        size = yield from f.get_size()
        f.close()
        return wrote, size

    assert cluster.run(go()) == (0, 0)


def test_zero_length_read(cluster, dfs):
    def go():
        f = yield from dfs.open_file("/zero-r", create=True)
        yield from f.write(0, pat(0, KiB))
        part = yield from f.read(512, 0)
        f.close()
        return part.nbytes

    assert cluster.run(go()) == 0


# --------------------------------------------------- chunk straddling
def test_write_straddling_chunk_boundary_at_stripe_edge(cluster, dfs):
    """With chunk_size=64 KiB on S2, chunk 0 and chunk 1 live on
    different targets — an extent crossing the boundary splits into two
    shard pieces and must reassemble exactly."""

    def go():
        f = yield from dfs.open_file("/straddle", create=True,
                                     chunk_size=CHUNK, oclass="S2")
        start = CHUNK - 100
        yield from f.write(start, pat(start, 200))
        back = yield from f.read(start, 200)
        size = yield from f.get_size()
        f.close()
        return back.materialize(), size

    data, size = cluster.run(go())
    assert data == pat(CHUNK - 100, 200).materialize()
    assert size == CHUNK + 100


def test_write_spanning_many_chunks_with_ragged_ends(cluster, dfs):
    def go():
        f = yield from dfs.open_file("/span", create=True,
                                     chunk_size=CHUNK, oclass="S2")
        start, nbytes = CHUNK // 2 + 7, 3 * CHUNK + 11
        yield from f.write(start, pat(start, nbytes))
        whole = yield from f.read(0, start + nbytes)
        f.close()
        return whole.materialize(), start, nbytes

    data, start, nbytes = cluster.run(go())
    assert len(data) == start + nbytes
    assert data[:start] == b"\x00" * start  # hole reads back as zeros
    assert data[start:] == pat(start, nbytes).materialize()


def test_read_exactly_one_chunk_on_the_boundary(cluster, dfs):
    def go():
        f = yield from dfs.open_file("/aligned", create=True,
                                     chunk_size=CHUNK, oclass="S2")
        yield from f.write(0, pat(0, 4 * CHUNK))
        middle = yield from f.read(CHUNK, CHUNK)
        f.close()
        return middle.materialize()

    assert cluster.run(go()) == pat(CHUNK, CHUNK).materialize()


# --------------------------------------------------- EOF clamping
def test_read_entirely_past_eof_returns_empty(cluster, dfs):
    def go():
        f = yield from dfs.open_file("/eof", create=True)
        yield from f.write(0, pat(0, KiB))
        past = yield from f.read(10 * KiB, KiB)
        f.close()
        return past.nbytes

    assert cluster.run(go()) == 0


def test_read_straddling_eof_is_short(cluster, dfs):
    def go():
        f = yield from dfs.open_file("/eof-short", create=True)
        yield from f.write(0, pat(0, KiB))
        part = yield from f.read(512, 4 * KiB)
        f.close()
        return part.materialize()

    assert cluster.run(go()) == pat(512, 512).materialize()


def test_read_from_empty_file(cluster, dfs):
    def go():
        f = yield from dfs.open_file("/empty", create=True)
        part = yield from f.read(0, KiB)
        f.close()
        return part.nbytes

    assert cluster.run(go()) == 0
