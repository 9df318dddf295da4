"""Tests for the libdaos-style Array and flat-KV APIs."""

import pytest

from repro.cluster import small_cluster
from repro.daos.array import DaosArray
from repro.daos.kv import DaosKV
from repro.daos.oclass import S2
from repro.daos.vos.payload import PatternPayload
from repro.errors import DerInval, DerNonexist
from repro.units import MiB


@pytest.fixture(scope="module")
def cluster():
    return small_cluster(server_nodes=2, client_nodes=1, targets_per_engine=2)


@pytest.fixture(scope="module")
def cont(cluster):
    client = cluster.new_client(0)

    def setup():
        pool = yield from client.connect_pool("tank")
        return (yield from pool.create_container("api-tests", oclass="S2"))

    return cluster.run(setup())


def test_array_create_write_read(cluster, cont):
    def go():
        arr = yield from DaosArray.create(cont, 8 * 1024)
        written = yield from arr.write(0, b"x" * 64)
        data = yield from arr.read(0, 64)
        arr.close()
        return written, data.materialize()

    written, data = cluster.run(go())
    assert written == 64  # bytes
    assert data == b"x" * 64


def test_array_open_recovers_metadata(cluster, cont):
    def go():
        arr = yield from DaosArray.create(cont, 1024)
        yield from arr.write(40, b"abcd" * 3)
        oid = arr.obj.oid
        arr.close()
        reopened = yield from DaosArray.open(cont, oid)
        data = yield from reopened.read(40, 12)
        chunk_bytes = reopened.chunk_bytes
        reopened.close()
        return data.materialize(), chunk_bytes

    data, chunk_bytes = cluster.run(go())
    assert data == b"abcd" * 3
    assert chunk_bytes == 1024


def test_array_large_lazy_io(cluster, cont):
    def go():
        arr = yield from DaosArray.create(cont, MiB)
        pattern = PatternPayload(seed=42, origin=0, nbytes=16 * MiB)
        yield from arr.write(0, pattern)
        back = yield from arr.read(0, 16 * MiB)
        arr.close()
        return back

    back = cluster.run(go())
    assert back == PatternPayload(seed=42, origin=0, nbytes=16 * MiB)


def test_kv_basalong(cluster, cont):
    def go():
        kv = yield from DaosKV.create(cont, S2)
        yield from kv.put("alpha", {"v": 1})
        yield from kv.put("beta", [1, 2])
        value = yield from kv.get("alpha")
        missing = yield from kv.get("gamma", default=None)
        keys = yield from kv.list()
        kv.close()
        return value, missing, keys

    value, missing, keys = cluster.run(go())
    assert value == {"v": 1}
    assert missing is None
    assert keys == ["alpha", "beta"]


def test_kv_get_missing_raises(cluster, cont):
    def go():
        kv = yield from DaosKV.create(cont)
        try:
            yield from kv.get("void")
        except DerNonexist:
            return "raises"
        finally:
            kv.close()

    assert cluster.run(go()) == "raises"


def test_kv_prefix_listing(cluster, cont):
    def go():
        kv = yield from DaosKV.create(cont)
        for name in ("run.001", "run.002", "cfg.a", "run.010"):
            yield from kv.put(name, name)
        runs = yield from kv.list(prefix="run.")
        kv.close()
        return runs

    assert cluster.run(go()) == ["run.001", "run.002", "run.010"]


def test_kv_reopen_by_oid(cluster, cont):
    def go():
        kv = yield from DaosKV.create(cont)
        yield from kv.put("persist", 7)
        oid = kv.oid
        kv.close()
        kv2 = DaosKV.open(cont, oid)
        value = yield from kv2.get("persist")
        kv2.close()
        return value

    assert cluster.run(go()) == 7
