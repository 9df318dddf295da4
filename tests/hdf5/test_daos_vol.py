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
        ds = yield from h5.create_dataset("temp", (64,), dtype="u1")
        yield from ds.write((0,), (64,), bytes(range(64)))
        data = yield from ds.read((10,), (4,))
        kind, aligned = h5.vol.kind, h5.data_aligned
        yield from h5.close()
        return data.materialize(), kind, aligned

    data, kind, aligned = cluster.run(go())
    assert data == bytes([10, 11, 12, 13])
    assert kind == "daos"
    assert aligned  # no format addresses, no staging — ever


def test_reopen_recovers_catalog_from_kv(cluster, cont):
    def go():
        h5 = yield from H5File.create(DaosVol(cont), "/persist.h5")
        h5.attrs["experiment"] = "ior"
        ds = yield from h5.create_dataset(
            "field", (4, 8), dtype="f8", attrs={"units": "K"}
        )
        yield from ds.write((0, 0), (4, 8), b"\x01" * (4 * 8 * 8))
        yield from h5.close()

        h5b = yield from H5File.open(DaosVol(cont), "/persist.h5")
        ds2 = h5b.dataset("field")
        data = yield from ds2.read((1, 0), (1, 8))
        meta = (h5b.attrs, ds2.attrs, ds2.space.dims, ds2.dtype.code,
                ds2.layout["kind"])
        yield from h5b.close()
        return data.materialize(), meta

    data, meta = cluster.run(go())
    assert data == b"\x01" * 64
    assert meta == (
        {"experiment": "ior"}, {"units": "K"}, (4, 8), "f8", "daos-array"
    )


def test_2d_hyperslab_roundtrip(cluster, cont):
    def go():
        h5 = yield from H5File.create(DaosVol(cont), "/grid.h5")
        ds = yield from h5.create_dataset("g", (8, 16), dtype="u1")
        yield from ds.write((0, 0), (8, 16), bytes(range(128)))
        block = yield from ds.read((2, 4), (3, 5))
        yield from h5.close()
        return block.materialize()

    expected = bytes(
        (row * 16 + col) % 256 for row in range(2, 5) for col in range(4, 9)
    )
    assert cluster.run(go()) == expected


def test_unwritten_extents_read_as_fill_value(cluster, cont):
    def go():
        h5 = yield from H5File.create(DaosVol(cont), "/sparse.h5")
        ds = yield from h5.create_dataset("t", (16, 32), dtype="u1",
                                          chunk_rows=4)
        yield from ds.write((4, 0), (4, 32), b"\x07" * 128)
        data = yield from ds.read((0, 0), (16, 32))
        yield from h5.close()
        return data.materialize()

    data = cluster.run(go())
    assert data[:128] == b"\x00" * 128  # array holes double as fill value
    assert data[128:256] == b"\x07" * 128
    assert data[256:] == b"\x00" * (16 * 32 - 256)


def test_create_truncates_an_existing_file(cluster, cont):
    def go():
        h5 = yield from H5File.create(DaosVol(cont), "/trunc.h5")
        ds = yield from h5.create_dataset("old", (32,), dtype="u1")
        yield from ds.write((0,), (32,), b"\xaa" * 32)
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
