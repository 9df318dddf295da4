"""HDF5-lite integration tests over DFuse (sec2) and MPI-IO (mpio)."""

import pytest

from repro.cluster import small_cluster
from repro.daos.vos.payload import PatternPayload
from repro.dfs import Dfs
from repro.dfuse import DFuseMount
from repro.hdf5 import H5File, MpioVfd, NativeVol, Sec2Vfd
from repro.hdf5.file import H5Error
from repro.mpi import MpiWorld
from repro.units import KiB, MiB


@pytest.fixture(scope="module")
def cluster():
    return small_cluster(server_nodes=2, client_nodes=2, targets_per_engine=2)


@pytest.fixture(scope="module")
def mount(cluster):
    client = cluster.new_client(0)

    def setup():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("h5-cont", oclass="S2")
        dfs = yield from Dfs.mount(cont)
        return DFuseMount(dfs)

    return cluster.run(setup())


def test_create_write_read_contiguous(cluster, mount):
    def go():
        h5 = yield from H5File.create(NativeVol(Sec2Vfd(mount)), "/exp.h5")
        ds = yield from h5.create_dataset("temp", (64,), dtype="u1")
        yield from ds.write((0,), (64,), bytes(range(64)))
        data = yield from ds.read((10,), (4,))
        yield from h5.close()
        return data.materialize()

    assert cluster.run(go()) == bytes([10, 11, 12, 13])


def test_reopen_recovers_catalog(cluster, mount):
    def go():
        h5 = yield from H5File.create(NativeVol(Sec2Vfd(mount)), "/persist.h5")
        h5.attrs["experiment"] = "ior"
        ds = yield from h5.create_dataset(
            "field", (4, 8), dtype="f8", attrs={"units": "K"}
        )
        yield from ds.write((0, 0), (4, 8), b"\x01" * (4 * 8 * 8))
        yield from h5.close()

        h5b = yield from H5File.open(NativeVol(Sec2Vfd(mount)), "/persist.h5")
        ds2 = h5b.dataset("field")
        data = yield from ds2.read((1, 0), (1, 8))
        meta = (h5b.attrs, ds2.attrs, ds2.space.dims, ds2.dtype.code)
        yield from h5b.close()
        return data.materialize(), meta

    data, meta = cluster.run(go())
    assert data == b"\x01" * 64
    assert meta == ({"experiment": "ior"}, {"units": "K"}, (4, 8), "f8")


def test_2d_hyperslab_roundtrip(cluster, mount):
    def go():
        h5 = yield from H5File.create(NativeVol(Sec2Vfd(mount)), "/grid.h5")
        ds = yield from h5.create_dataset("g", (8, 16), dtype="u1")
        yield from ds.write((0, 0), (8, 16), bytes(range(128)))
        block = yield from ds.read((2, 4), (3, 5))
        yield from h5.close()
        return block.materialize()

    expected = bytes(
        (row * 16 + col) % 256 for row in range(2, 5) for col in range(4, 9)
    )
    assert cluster.run(go()) == expected


def test_unwritten_rows_read_as_fill_value(cluster, mount):
    """Rows before the written ones read back as the file's hole, rows
    after them lie past EOF and read as zeros too."""
    def go():
        h5 = yield from H5File.create(NativeVol(Sec2Vfd(mount)), "/fill.h5")
        ds = yield from h5.create_dataset("t", (16, 32), dtype="u1")
        yield from ds.write((4, 0), (4, 32), b"\x07" * 128)
        data = yield from ds.read((0, 0), (16, 32))
        yield from h5.close()
        return data.materialize()

    data = cluster.run(go())
    assert data[:128] == b"\x00" * 128
    assert data[128:256] == b"\x07" * 128
    assert data[256:] == b"\x00" * (16 * 32 - 256)


def test_wrong_payload_size_rejected(cluster, mount):
    def go():
        h5 = yield from H5File.create(NativeVol(Sec2Vfd(mount)), "/bad.h5")
        ds = yield from h5.create_dataset("d", (10,), dtype="f8")
        try:
            yield from ds.write((0,), (10,), b"short")
        except ValueError:
            return "rejected"
        finally:
            yield from h5.close()

    assert cluster.run(go()) == "rejected"


def test_duplicate_dataset_rejected(cluster, mount):
    def go():
        h5 = yield from H5File.create(NativeVol(Sec2Vfd(mount)), "/dup.h5")
        yield from h5.create_dataset("d", (4,))
        try:
            yield from h5.create_dataset("d", (4,))
        except H5Error:
            return "dup"
        finally:
            yield from h5.close()

    assert cluster.run(go()) == "dup"


def test_alignment_property_controls_data_alignment(cluster, mount):
    def go():
        h5 = yield from H5File.create(NativeVol(Sec2Vfd(mount)), "/padded.h5",
                                      alignment=MiB)
        ds = yield from h5.create_dataset("d", (KiB,), dtype="u1")
        aligned_addr = ds.layout["addr"]
        is_aligned = h5.vol.data_aligned(h5)
        yield from h5.close()
        h5b = yield from H5File.create(NativeVol(Sec2Vfd(mount)), "/packed.h5")
        ds2 = yield from h5b.create_dataset("d", (KiB,), dtype="u1")
        unaligned_addr = ds2.layout["addr"]
        not_aligned = h5b.vol.data_aligned(h5b)
        yield from h5b.close()
        return aligned_addr, is_aligned, unaligned_addr, not_aligned

    aligned_addr, is_aligned, unaligned_addr, not_aligned = cluster.run(go())
    assert aligned_addr % MiB == 0 and is_aligned
    assert unaligned_addr % MiB != 0 and not not_aligned


def test_unaligned_sec2_pays_staging(cluster, mount):
    def timed(alignment):
        def go():
            h5 = yield from H5File.create(
                NativeVol(Sec2Vfd(mount)), f"/stage{alignment}.h5",
                alignment=alignment,
            )
            ds = yield from h5.create_dataset("d", (8 * MiB,), dtype="u1")
            start = cluster.sim.now
            for i in range(8):
                yield from ds.write(
                    (i * MiB,), (MiB,),
                    PatternPayload(seed=1, origin=i * MiB, nbytes=MiB),
                )
            elapsed = cluster.sim.now - start
            yield from h5.close()
            return elapsed

        return cluster.run(go())

    slow = timed(1)
    fast = timed(MiB)
    assert slow > fast * 1.5  # staging dominates when unaligned


def test_data_aligned_tracks_vfd_preferred_io(cluster, mount):
    def probe(alignment, path):
        def go():
            vfd = Sec2Vfd(mount)
            h5 = yield from H5File.create(
                NativeVol(vfd), path, alignment=alignment
            )
            result = (vfd.preferred_io, h5.vol.data_aligned(h5))
            yield from h5.close()
            return result

        return cluster.run(go())

    pio, at_blksize = probe(mount.blksize, "/pio-eq.h5")
    assert pio == mount.blksize  # sec2 advertises the mount's I/O size
    _, above = probe(2 * mount.blksize, "/pio-above.h5")
    _, at_half = probe(mount.blksize // 2, "/pio-half.h5")
    _, at_one = probe(1, "/pio-one.h5")
    assert at_blksize and above  # alignment >= preferred_io skips staging
    assert not at_half and not at_one  # anything below still stages


def test_preferred_io_alignment_skips_staging_charge(cluster, mount):
    n_writes, nbytes = 4, MiB

    def timed(alignment, path):
        def go():
            h5 = yield from H5File.create(
                NativeVol(Sec2Vfd(mount)), path, alignment=alignment
            )
            ds = yield from h5.create_dataset(
                "d", (n_writes * nbytes,), dtype="u1"
            )
            start = cluster.sim.now
            for i in range(n_writes):
                yield from ds.write(
                    (i * nbytes,), (nbytes,),
                    PatternPayload(seed=2, origin=i * nbytes, nbytes=nbytes),
                )
            elapsed = cluster.sim.now - start
            yield from h5.close()
            return elapsed

        return cluster.run(go())

    fast = timed(mount.blksize, "/stage-skip.h5")
    slow = timed(1, "/stage-charged.h5")
    staging = n_writes * nbytes / Sec2Vfd(mount).staging_bw
    # alignment=1 pays the conversion/sieve pipeline on every raw write;
    # alignment=preferred_io bypasses it entirely
    assert slow - fast >= staging * 0.5


def test_parallel_hdf5_over_mpio(cluster, mount):
    world = MpiWorld(cluster.sim, cluster.fabric, cluster.clients, ppn=2)
    blk = 64 * KiB

    def main(ctx):
        client = cluster.new_client(cluster.clients.index(ctx.node))
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.open_container("h5-cont")
        dfs = yield from Dfs.mount(cont)
        rank_mount = DFuseMount(dfs)
        vfd = MpioVfd(ctx, rank_mount, collective=True)
        # Parallel HDF5: file creation is collective over the communicator.
        h5 = yield from H5File.create(NativeVol(vfd), "/phdf5.h5")
        ds = yield from h5.create_dataset("shared", (blk * ctx.size,),
                                          dtype="u1")
        pattern = PatternPayload(seed=9, origin=ctx.rank * blk, nbytes=blk)
        yield from ds.write((ctx.rank * blk,), (blk,), pattern)
        other = (ctx.rank + 1) % ctx.size
        back = yield from ds.read((other * blk,), (blk,))
        yield from h5.close()
        return back == PatternPayload(seed=9, origin=other * blk, nbytes=blk)

    assert all(world.run_to_completion(main))


def test_create_and_open_take_a_vol_not_a_bare_vfd(mount):
    """The pre-VOL signature is gone: a connector is required, and the
    check comes before the helper's first simulated step."""
    for call in (
        lambda: H5File.create(Sec2Vfd(mount), "/bare.h5"),
        lambda: H5File.open(Sec2Vfd(mount), "/bare.h5"),
        lambda: H5File.create("not storage", "/bare.h5"),
    ):
        with pytest.raises(TypeError, match="expected a Vol, got"):
            next(call())
