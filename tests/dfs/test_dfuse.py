"""DFuse mount tests: POSIX semantics + FUSE cost model."""

import pytest

from repro.cluster import small_cluster
from repro.daos.vos.payload import PatternPayload
from repro.dfs import Dfs
from repro.dfuse import DFuseMount
from repro.errors import FsError
from repro.units import KiB, MiB


@pytest.fixture(scope="module")
def cluster():
    return small_cluster(server_nodes=2, client_nodes=2, targets_per_engine=2)


@pytest.fixture(scope="module")
def mount(cluster):
    client = cluster.new_client(0)

    def setup():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("fuse-cont", oclass="S2")
        dfs = yield from Dfs.mount(cont)
        return DFuseMount(dfs)

    return cluster.run(setup())


def test_open_write_read_via_posix(cluster, mount):
    def go():
        f = yield from mount.open("/hello.txt", ("w", "creat"))
        yield from f.pwrite(0, b"posix data")
        data = yield from f.pread(0, 64)
        yield from f.close()
        return data.materialize()

    assert cluster.run(go()) == b"posix data"


def test_errors_translated_to_errno(cluster, mount):
    def go():
        try:
            yield from mount.open("/missing-file")
        except FsError as err:
            return err.errno_name

    assert cluster.run(go()) == "ENOENT"


def test_mkdir_stat_readdir(cluster, mount):
    def go():
        yield from mount.mkdir("/d")
        f = yield from mount.open("/d/x", ("w", "creat"))
        yield from f.pwrite(0, b"1234")
        yield from f.close()
        st = yield from mount.stat("/d/x")
        st_dir = yield from mount.stat("/d")
        names = yield from mount.readdir("/d")
        return st, st_dir.is_dir, names

    st, is_dir, names = cluster.run(go())
    assert st.size == 4 and not st.is_dir
    assert st.blksize == MiB  # dfuse advertises the DFS chunk size
    assert is_dir and names == ["x"]


def test_unlink_rename(cluster, mount):
    def go():
        f = yield from mount.open("/r1", ("w", "creat"))
        yield from f.pwrite(0, b"v")
        yield from f.close()
        yield from mount.rename("/r1", "/r2")
        yield from mount.unlink("/r2")
        try:
            yield from mount.stat("/r2")
        except FsError as err:
            return err.errno_name

    assert cluster.run(go()) == "ENOENT"


def test_rmdir_and_the_errnos_it_translates(cluster, mount):
    def errno_of(op):
        try:
            yield from op
        except FsError as err:
            return err.errno_name

    def go():
        yield from mount.mkdir("/rd")
        f = yield from mount.open("/rd/x", ("w", "creat"))
        yield from f.close()
        non_empty = yield from errno_of(mount.rmdir("/rd"))
        yield from mount.unlink("/rd/x")
        yield from mount.rmdir("/rd")
        missing = yield from errno_of(mount.rmdir("/rd"))
        names = yield from mount.readdir("/")
        return non_empty, missing, "rd" in names

    assert cluster.run(go()) == ("EEXIST", "ENOENT", False)


def test_large_write_segmented_into_fuse_requests(cluster, mount):
    # Aligned 4 MiB write -> 4 requests; unaligned 4 MiB write -> 5.
    def timed(offset):
        def go():
            f = yield from mount.open(f"/seg{offset}", ("w", "creat"))
            start = cluster.sim.now
            yield from f.pwrite(offset, PatternPayload(1, 0, 4 * MiB))
            elapsed = cluster.sim.now - start
            yield from f.close()
            return elapsed

        return cluster.run(go())

    aligned = timed(0)
    unaligned = timed(64 * KiB)
    assert unaligned > aligned


def test_window_splitting_logic(mount):
    windows = mount._windows(0, 4 * MiB)
    assert len(windows) == 4
    windows = mount._windows(64 * KiB, 4 * MiB)
    assert len(windows) == 5
    assert windows[0] == (64 * KiB, MiB - 64 * KiB)
    assert sum(n for _, n in windows) == 4 * MiB
    assert mount._windows(10, 0) == []


def test_truncate_and_size(cluster, mount):
    def go():
        f = yield from mount.open("/t", ("w", "creat"))
        yield from f.pwrite(0, b"z" * 100)
        yield from f.truncate(10)
        size = yield from f.size()
        yield from f.fsync()
        yield from f.close()
        return size

    assert cluster.run(go()) == 10


def test_pread_short_at_eof(cluster, mount):
    def go():
        f = yield from mount.open("/short", ("w", "creat"))
        yield from f.pwrite(0, b"abc")
        data = yield from f.pread(0, 2 * MiB)
        yield from f.close()
        return data.materialize()

    assert cluster.run(go()) == b"abc"


def test_posix_io_costs_more_than_dfs(cluster, mount):
    """DFuse adds kernel-crossing overhead vs. the native DFS API."""

    def time_posix():
        def go():
            f = yield from mount.open("/cost-posix", ("w", "creat"))
            start = cluster.sim.now
            for i in range(16):
                yield from f.pwrite(i * 64 * KiB, b"q" * (64 * KiB))
            elapsed = cluster.sim.now - start
            yield from f.close()
            return elapsed

        return cluster.run(go())

    def time_dfs():
        def go():
            f = yield from mount.dfs.open_file("/cost-dfs", create=True)
            start = cluster.sim.now
            for i in range(16):
                yield from f.write(i * 64 * KiB, b"q" * (64 * KiB))
            elapsed = cluster.sim.now - start
            f.close()
            return elapsed

        return cluster.run(go())

    assert time_posix() > time_dfs()
