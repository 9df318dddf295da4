"""The DAOS VOL connector: HDF5 files with no POSIX layer underneath."""

import pytest

from repro.cluster import small_cluster
from repro.daos.kv import DaosKV
from repro.daos.objid import ObjId
from repro.daos.oclass import S1
from repro.hdf5 import DaosVol, H5File
from repro.hdf5.vol import NAMESPACE_LO


@pytest.fixture(scope="module")
def cluster():
    return small_cluster(server_nodes=2, client_nodes=1, targets_per_engine=2)


@pytest.fixture(scope="module")
def cont(cluster):
    client = cluster.new_client(0)

    def setup():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("h5-daos", oclass="S2")
        return cont

    return cluster.run(setup())


def test_create_write_read_roundtrip(cluster, cont):
    def go():
        h5 = yield from H5File.create(DaosVol(cont), "/exp.h5")
        ds = yield from h5.create_dataset("temp", 64)
        yield from ds.write(0, bytes(range(64)))
        data = yield from ds.read(10, 4)
        kind = h5.vol.kind
        yield from h5.close()
        return data.materialize(), kind

    data, kind = cluster.run(go())
    assert data == bytes([10, 11, 12, 13])
    assert kind == "daos"


def test_reopen_recovers_catalog_from_kv(cluster, cont):
    def go():
        h5 = yield from H5File.create(DaosVol(cont), "/persist.h5")
        ds = yield from h5.create_dataset("field", 256)
        yield from ds.write(0, b"\x01" * 256)
        yield from h5.close()

        h5b = yield from H5File.open(DaosVol(cont), "/persist.h5")
        ds2 = h5b.dataset("field")
        data = yield from ds2.read(64, 64)
        meta = (ds2.nbytes, ds2.layout["kind"])
        yield from h5b.close()
        return data.materialize(), meta

    data, meta = cluster.run(go())
    assert data == b"\x01" * 64
    assert meta == (256, "daos-array")


def test_unwritten_extents_read_as_fill_value(cluster, cont):
    def go():
        h5 = yield from H5File.create(DaosVol(cont), "/sparse.h5")
        ds = yield from h5.create_dataset("t", 512)
        yield from ds.write(128, b"\x07" * 128)
        data = yield from ds.read(0, 512)
        yield from h5.close()
        return data.materialize()

    data = cluster.run(go())
    assert data[:128] == b"\x00" * 128  # array holes double as fill value
    assert data[128:256] == b"\x07" * 128
    assert data[256:] == b"\x00" * 256


def test_create_truncates_an_existing_file(cluster, cont):
    def go():
        h5 = yield from H5File.create(DaosVol(cont), "/trunc.h5")
        ds = yield from h5.create_dataset("old", 32)
        yield from ds.write(0, b"\xaa" * 32)
        yield from h5.close()

        h5b = yield from H5File.create(DaosVol(cont), "/trunc.h5")
        names = list(h5b.datasets)
        yield from h5b.close()
        h5c = yield from H5File.open(DaosVol(cont), "/trunc.h5")
        reopened = list(h5c.datasets)
        yield from h5c.close()
        return names, reopened

    names, reopened = cluster.run(go())
    assert names == []  # truncate semantics: the old dataset is gone
    assert reopened == []


def test_metadata_lives_in_the_namespace_kv(cluster, cont):
    def go():
        h5 = yield from H5File.create(DaosVol(cont), "/ns.h5")
        yield from h5.close()
        ns = DaosKV.open(cont, ObjId.generate(S1, lo=NAMESPACE_LO))
        keys = yield from ns.scan()
        ns.close()
        return keys

    assert "/ns.h5" in cluster.run(go())
