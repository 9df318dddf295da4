"""DFS namespace + file tests (integration over a small cluster)."""

import pytest

from repro.cluster import small_cluster
from repro.daos.vos.payload import PatternPayload
from repro.dfs import Dfs
from repro.errors import DerExist, DerIsDir, DerNonexist, DerNotDir
from repro.units import KiB, MiB


@pytest.fixture(scope="module")
def cluster():
    return small_cluster(server_nodes=2, client_nodes=2, targets_per_engine=2)


@pytest.fixture(scope="module")
def dfs(cluster):
    client = cluster.new_client(0)

    def setup():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("posix-fs", oclass="S2")
        return (yield from Dfs.mount(cont))

    return cluster.run(setup())


def test_mount_formats_then_remounts(cluster, dfs):
    client = cluster.new_client(1)

    def go():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.open_container("posix-fs")
        dfs2 = yield from Dfs.mount(cont)
        names = yield from dfs2.readdir("/")
        dfs2.umount()
        return names

    assert isinstance(cluster.run(go()), list)


def test_mkdir_readdir_nested(cluster, dfs):
    def go():
        yield from dfs.mkdir("/data")
        yield from dfs.mkdir("/data/run1")
        yield from dfs.mkdir("/data/run2")
        return (yield from dfs.readdir("/data"))

    assert cluster.run(go()) == ["run1", "run2"]


def test_mkdir_existing_fails(cluster, dfs):
    def go():
        yield from dfs.mkdir("/dup")
        try:
            yield from dfs.mkdir("/dup")
        except DerExist:
            return "exists"

    assert cluster.run(go()) == "exists"


def test_mkdir_missing_parent_fails(cluster, dfs):
    def go():
        try:
            yield from dfs.mkdir("/no/such/parent")
        except DerNonexist:
            return "enoent"

    assert cluster.run(go()) == "enoent"


def test_file_create_write_read(cluster, dfs):
    def go():
        f = yield from dfs.open_file("/data/file0", create=True)
        yield from f.write(0, b"contents")
        data = yield from f.read(0, 100)
        f.close()
        return data.materialize()

    assert cluster.run(go()) == b"contents"  # short read at EOF


def test_open_missing_without_create(cluster, dfs):
    def go():
        try:
            yield from dfs.open_file("/data/ghost")
        except DerNonexist:
            return "enoent"

    assert cluster.run(go()) == "enoent"


def test_open_excl_on_existing(cluster, dfs):
    def go():
        f = yield from dfs.open_file("/excl-file", create=True)
        f.close()
        try:
            yield from dfs.open_file("/excl-file", create=True, excl=True)
        except DerExist:
            return "eexist"

    assert cluster.run(go()) == "eexist"


def test_open_trunc_resets_size(cluster, dfs):
    def go():
        f = yield from dfs.open_file("/trunc-me", create=True)
        yield from f.write(0, b"x" * 1000)
        f.close()
        f2 = yield from dfs.open_file("/trunc-me", trunc=True)
        size = yield from f2.get_size()
        f2.close()
        return size

    assert cluster.run(go()) == 0


def test_stat_reports_array_derived_size(cluster, dfs):
    def go():
        f = yield from dfs.open_file("/sized", create=True)
        yield from f.write(3 * MiB, b"end")
        f.close()
        entry, size = yield from dfs.stat("/sized")
        return entry.kind, size

    kind, size = cluster.run(go())
    assert kind == "file"
    assert size == 3 * MiB + 3


def test_file_io_crossing_chunks(cluster, dfs):
    def go():
        f = yield from dfs.open_file("/big", create=True, chunk_size=MiB)
        pattern = PatternPayload(seed=4, origin=0, nbytes=4 * MiB)
        yield from f.write(700 * KiB, pattern)
        back = yield from f.read(700 * KiB, 4 * MiB)
        f.close()
        return back

    assert cluster.run(go()) == PatternPayload(seed=4, origin=0, nbytes=4 * MiB)


def test_unlink_removes_and_frees(cluster, dfs):
    def go():
        f = yield from dfs.open_file("/doomed", create=True)
        yield from f.write(0, b"y" * 4096)
        f.close()
        yield from dfs.unlink("/doomed")
        try:
            yield from dfs.stat("/doomed")
        except DerNonexist:
            return "gone"

    assert cluster.run(go()) == "gone"


def test_unlink_directory_is_error(cluster, dfs):
    def go():
        yield from dfs.mkdir("/a-dir")
        try:
            yield from dfs.unlink("/a-dir")
        except DerIsDir:
            return "eisdir"

    assert cluster.run(go()) == "eisdir"


def test_path_component_through_file_is_enotdir(cluster, dfs):
    def go():
        f = yield from dfs.open_file("/plainfile", create=True)
        f.close()
        try:
            yield from dfs.open_file("/plainfile/sub", create=True)
        except DerNotDir:
            return "enotdir"

    assert cluster.run(go()) == "enotdir"


def test_per_file_oclass_override(cluster, dfs):
    def go():
        f = yield from dfs.open_file("/wide", create=True, oclass="SX")
        n = sum(map(len, f.obj.layout.groups))
        f.close()
        f2 = yield from dfs.open_file("/narrow", create=True, oclass="S1")
        m = sum(map(len, f2.obj.layout.groups))
        f2.close()
        return n, m

    n, m = cluster.run(go())
    assert n == 8 and m == 1
