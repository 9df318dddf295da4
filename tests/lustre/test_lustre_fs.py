"""Lustre filesystem integration tests."""

import pytest

from repro.cluster import build_lustre_cluster
from repro.daos.vos.payload import PatternPayload
from repro.errors import FsError
from repro.hardware.specs import EngineSpec
from repro.units import KiB, MiB


@pytest.fixture(scope="module")
def lustre():
    return build_lustre_cluster(
        server_nodes=2,
        client_nodes=2,
        engine_spec=EngineSpec(targets=2),
        stripe_count=4,
    )


def test_create_write_read_roundtrip(lustre):
    mount = lustre.mount(0)

    def go():
        f = yield from mount.open("/file", ("w", "creat"))
        yield from f.pwrite(0, b"lustre bytes")
        data = yield from f.pread(0, 64)
        yield from f.close()
        return data.materialize()

    assert lustre.run(go()) == b"lustre bytes"


def test_striping_across_osts(lustre):
    mount = lustre.mount(0)

    def go():
        f = yield from mount.open("/striped", ("w", "creat"))
        yield from f.pwrite(0, PatternPayload(seed=1, origin=0, nbytes=8 * MiB))
        pieces = f._pieces(0, 8 * MiB)
        osts = {ost.index for ost, *_ in pieces}
        back = yield from f.pread(0, 8 * MiB)
        yield from f.close()
        return osts, back

    osts, back = lustre.run(go())
    assert len(osts) == 4  # default stripe count
    assert back == PatternPayload(seed=1, origin=0, nbytes=8 * MiB)


def test_stripe_math_object_offsets(lustre):
    mount = lustre.mount(0)

    def go():
        f = yield from mount.open("/math", ("w", "creat"))
        return f

    f = lustre.run(go())
    pieces = f._pieces(5 * MiB + 100, MiB)
    # chunk 5 -> stripe 1 (5 % 4), row 1 -> obj offset 1 MiB + 100
    ost, stripe, obj_offset, nbytes = pieces[0]
    assert stripe == 1
    assert obj_offset == MiB + 100
    assert nbytes == MiB - 100


def test_namespace_operations(lustre):
    mount = lustre.mount(1)

    def go():
        yield from mount.mkdir("/dir")
        f = yield from mount.open("/dir/a", ("w", "creat"))
        yield from f.pwrite(0, b"xyz")
        yield from f.close()
        names = yield from mount.readdir("/dir")
        st = yield from mount.stat("/dir/a")
        yield from mount.unlink("/dir/a")
        try:
            yield from mount.stat("/dir/a")
        except FsError as err:
            return names, st.size, err.errno_name

    names, size, errno_name = lustre.run(go())
    assert names == ["a"] and size == 3 and errno_name == "ENOENT"


def test_open_missing_enoent(lustre):
    mount = lustre.mount(0)

    def go():
        try:
            yield from mount.open("/void")
        except FsError as err:
            return err.errno_name

    assert lustre.run(go()) == "ENOENT"


def test_truncate_preserves_prefix(lustre):
    mount = lustre.mount(0)

    def go():
        f = yield from mount.open("/trunc", ("w", "creat"))
        yield from f.pwrite(0, b"0123456789")
        yield from f.truncate(4)
        data = yield from f.pread(0, 10)  # a short read at the new EOF
        yield from f.close()
        return data.materialize()

    assert lustre.run(go()) == b"0123"


def test_fpp_writers_do_not_conflict(lustre):
    """File-per-process: each writer locks its own object once."""

    def writer(i):
        mount = lustre.mount(i % 2, name=f"w{i}")

        def go():
            f = yield from mount.open(f"/fpp{i}", ("w", "creat"))
            for k in range(8):
                yield from f.pwrite(k * 256 * KiB, b"d" * (256 * KiB))
            yield from f.close()

        return go()

    tasks = [lustre.sim.spawn(writer(i)) for i in range(4)]
    for task in tasks:
        lustre.sim.run_until_complete(task)
    total_revocations = sum(
        space.revocations
        for ost in lustre.fs.osts
        for space in ost.locks.values()
    )
    assert total_revocations == 0


def test_shared_file_unaligned_writers_conflict(lustre):
    """Interleaved page-sharing writers revoke each other: every byte-
    disjoint neighbour pair shares an LDLM page, so boundary conflicts
    accumulate and the object goes (and stays) contended."""
    xfer = 1_000_000  # not page aligned: neighbours share an edge page

    def precreate():
        mount = lustre.mount(0, name="pre")
        f = yield from mount.open("/shared-hard", ("w", "creat"))
        yield from f.close()

    lustre.run(precreate())

    def writer(i):
        mount = lustre.mount(i % 2, name=f"sw{i}")

        def go():
            f = yield from mount.open("/shared-hard", ("w",))
            # enough bytes per op that the writers genuinely overlap in
            # time despite the staggered MDS opens
            for k in range(6):
                offset = (k * 4 + i) * xfer  # interleaved strided
                yield from f.pwrite(offset, b"s" * xfer)
            yield from f.close()

        return go()

    tasks = [lustre.sim.spawn(writer(i)) for i in range(4)]
    for task in tasks:
        lustre.sim.run_until_complete(task)
    ino = lustre.run(_resolve_ino(lustre, "/shared-hard"))
    spaces = [
        space
        for ost in lustre.fs.osts
        for key, space in ost.locks.items()
        if key[0] == ino
    ]
    assert sum(space.revocations for space in spaces) >= 3
    assert any(space.contended for space in spaces)


def test_same_region_writers_ping_pong_every_op(lustre):
    """Two writers alternately updating one region: a revocation per op."""

    def precreate():
        mount = lustre.mount(0, name="pp-pre")
        f = yield from mount.open("/ping-pong", ("w", "creat"))
        yield from f.close()

    lustre.run(precreate())

    def writer(i):
        mount = lustre.mount(i % 2, name=f"pp{i}")

        def go():
            f = yield from mount.open("/ping-pong", ("w",))
            for k in range(12):
                yield from f.pwrite(0, b"x" * 4096)
                # think time exceeding the revocation round, so the two
                # writers keep trading the region back and forth
                yield 6e-4 + 1e-4 * i
            yield from f.close()

        return go()

    tasks = [lustre.sim.spawn(writer(i)) for i in range(2)]
    for task in tasks:
        lustre.sim.run_until_complete(task)
    ino = lustre.run(_resolve_ino(lustre, "/ping-pong"))
    revocations = sum(
        space.revocations
        for ost in lustre.fs.osts
        for key, space in ost.locks.items()
        if key[0] == ino
    )
    # Sustained mutual revocation: every hand-over of the region between
    # the two writers revokes the other's lock. The exact count depends
    # on how often the think-times interleave the writers; four
    # hand-overs across 16 ops is the deterministic floor here.
    assert revocations >= 4


def _resolve_ino(lustre, path):
    mount = lustre.mount(0, name="probe")

    def go():
        yield 0.0
        from repro.posix.vfs import normalize

        return lustre.fs.mds.resolve(normalize(path)).ino

    return go()


def test_mds_serializes_create_storm(lustre):
    """Creates from many clients queue on MDS service threads."""
    before_ops = lustre.fs.mds.ops

    def creator(i):
        mount = lustre.mount(i % 2, name=f"mk{i}")

        def go():
            f = yield from mount.open(f"/storm{i}", ("w", "creat"))
            yield from f.close()

        return go()

    start = lustre.sim.now
    tasks = [lustre.sim.spawn(creator(i)) for i in range(64)]
    for task in tasks:
        lustre.sim.run_until_complete(task)
    elapsed = lustre.sim.now - start
    assert lustre.fs.mds.ops - before_ops == 64
    # 64 creates through one MDS must take at least 64 * op_cpu / threads
    assert elapsed >= 64 * lustre.fs.mds.op_cpu / 32
