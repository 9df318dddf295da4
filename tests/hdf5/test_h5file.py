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
        ds = yield from h5.create_dataset("temp", 64)
        yield from ds.write(0, bytes(range(64)))
        data = yield from ds.read(10, 4)
        yield from h5.close()
        return data.materialize()

    assert cluster.run(go()) == bytes([10, 11, 12, 13])


def test_reopen_recovers_catalog(cluster, mount):
    def go():
        h5 = yield from H5File.create(NativeVol(Sec2Vfd(mount)), "/persist.h5")
        ds = yield from h5.create_dataset("field", 256)
        yield from ds.write(0, b"\x01" * 256)
        yield from h5.close()

        h5b = yield from H5File.open(NativeVol(Sec2Vfd(mount)), "/persist.h5")
        ds2 = h5b.dataset("field")
        data = yield from ds2.read(64, 64)
        record = ds2.to_record()
        yield from h5b.close()
        return data.materialize(), ds2.nbytes, record

    data, nbytes, record = cluster.run(go())
    assert data == b"\x01" * 64
    assert nbytes == 256
    # the catalog keeps HDF5's header fields for a 1-D byte dataset
    assert (record["space"], record["dtype"], record["attrs"]) == (
        [256], "u1", {}
    )
    assert record["layout"]["kind"] == "contiguous"


def test_unwritten_rows_read_as_fill_value(cluster, mount):
    """Bytes before the written range read back as the file's hole,
    bytes after it lie past EOF and read as zeros too."""
    def go():
        h5 = yield from H5File.create(NativeVol(Sec2Vfd(mount)), "/fill.h5")
        ds = yield from h5.create_dataset("t", 512)
        yield from ds.write(128, b"\x07" * 128)
        data = yield from ds.read(0, 512)
        yield from h5.close()
        return data.materialize()

    data = cluster.run(go())
    assert data[:128] == b"\x00" * 128
    assert data[128:256] == b"\x07" * 128
    assert data[256:] == b"\x00" * 256


def test_wrong_payload_size_rejected(cluster, mount):
    """A dataset is at least one byte, and a transfer must lie inside
    its extent: both are checked before any simulated step."""
    def go():
        h5 = yield from H5File.create(NativeVol(Sec2Vfd(mount)), "/bad.h5")
        ds = yield from h5.create_dataset("d", 10)
        attempts = [
            lambda: h5.create_dataset("empty", 0),
            lambda: ds.write(8, b"short"),  # runs 3 bytes past the end
            lambda: ds.write(-1, b"x"),
            lambda: ds.write(0, b""),
            lambda: ds.read(8, 5),
            lambda: ds.read(10, 1),
        ]
        rejected = 0
        for attempt in attempts:
            try:
                next(attempt())
            except ValueError:
                rejected += 1
        yield from h5.close()
        return rejected, len(attempts)

    rejected, attempts = cluster.run(go())
    assert rejected == attempts


def test_duplicate_dataset_rejected(cluster, mount):
    def go():
        h5 = yield from H5File.create(NativeVol(Sec2Vfd(mount)), "/dup.h5")
        yield from h5.create_dataset("d", 4)
        try:
            yield from h5.create_dataset("d", 4)
        except H5Error:
            return "dup"
        finally:
            yield from h5.close()

    assert cluster.run(go()) == "dup"


def test_alignment_property_controls_data_alignment(cluster, mount):
    def go():
        h5 = yield from H5File.create(NativeVol(Sec2Vfd(mount)), "/padded.h5",
                                      alignment=MiB)
        ds = yield from h5.create_dataset("d", KiB)
        aligned_addr = ds.layout["addr"]
        is_aligned = h5.vol.data_aligned(h5)
        yield from h5.close()
        h5b = yield from H5File.create(NativeVol(Sec2Vfd(mount)), "/packed.h5")
        ds2 = yield from h5b.create_dataset("d", KiB)
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
            ds = yield from h5.create_dataset("d", 8 * MiB)
            start = cluster.sim.now
            for i in range(8):
                yield from ds.write(
                    i * MiB, PatternPayload(seed=1, origin=i * MiB, nbytes=MiB)
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
            ds = yield from h5.create_dataset("d", n_writes * nbytes)
            start = cluster.sim.now
            for i in range(n_writes):
                yield from ds.write(
                    i * nbytes,
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
        ds = yield from h5.create_dataset("shared", blk * ctx.size)
        pattern = PatternPayload(seed=9, origin=ctx.rank * blk, nbytes=blk)
        yield from ds.write(ctx.rank * blk, pattern)
        other = (ctx.rank + 1) % ctx.size
        back = yield from ds.read(other * blk, blk)
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
