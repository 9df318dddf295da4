"""MPI-IO tests: independent + collective I/O over DFuse and native DFS."""

import pytest

from repro.daos.vos.payload import PatternPayload
from repro.errors import MpiError
from repro.mpiio import DfsDriver, MpiFile, UfsDriver
from repro.mpiio.romio import (
    _coalesce,
    choose_aggregators,
    domain_owner,
    split_by_domain,
)
from repro.units import KiB, MiB

from .conftest import make_rank_mount


def run_world(cluster, world, rank_fn):
    return world.run_to_completion(rank_fn)


def test_static_cyclic_file_domains():
    aggs = [0, 4]
    # ownership alternates per 1 MiB block, and is absolute: the same
    # offset always maps to the same aggregator regardless of the call.
    assert domain_owner(0, aggs) == 0
    assert domain_owner(MiB, aggs) == 4
    assert domain_owner(2 * MiB, aggs) == 0
    assert domain_owner(2 * MiB + 5, aggs) == 0
    pieces = split_by_domain(512 * KiB, 2 * MiB, aggs)
    assert pieces == [
        (0, 512 * KiB, MiB),
        (4, MiB, 2 * MiB),
        (0, 2 * MiB, 2 * MiB + 512 * KiB),
    ]
    assert sum(stop - start for _a, start, stop in pieces) == 2 * MiB


def test_coalesce_merges_adjacent():
    from repro.daos.vos.payload import BytesPayload

    runs = _coalesce(
        [(10, BytesPayload(b"bb")), (0, BytesPayload(b"aa")),
         (2, BytesPayload(b"cc"))]
    )
    assert [(off, p.materialize()) for off, p in runs] == [
        (0, b"aacc"),
        (10, b"bb"),
    ]


def test_choose_one_aggregator_per_node(cluster, world):
    def main(ctx):
        yield 0.0
        return choose_aggregators(ctx)

    results = run_world(cluster, world, main)
    assert results[0] == [0, 2]  # ppn=2 on two nodes


def test_independent_write_read_fpp(cluster, cont_label, world):
    def main(ctx):
        mount, _dfs = yield from make_rank_mount(cluster, cont_label, ctx)
        driver = UfsDriver(mount)
        fh = yield from MpiFile.open(
            ctx, f"/ind-{ctx.rank}", driver, create=True
        )
        pattern = PatternPayload(seed=ctx.rank, origin=0, nbytes=256 * KiB)
        yield from fh.write_at(0, pattern)
        back = yield from fh.read_at(0, 256 * KiB)
        yield from fh.close()
        return back == pattern

    assert all(run_world(cluster, world, main))


def test_collective_write_then_independent_read(cluster, cont_label, world):
    blk = 128 * KiB

    def main(ctx):
        mount, _dfs = yield from make_rank_mount(cluster, cont_label, ctx)
        driver = UfsDriver(mount)
        fh = yield from MpiFile.open(ctx, "/coll-shared", driver, create=True)
        pattern = PatternPayload(seed=7, origin=ctx.rank * blk, nbytes=blk)
        yield from fh.write_at_all(ctx.rank * blk, pattern)
        # read back a *different* rank's block to prove global visibility
        other = (ctx.rank + 1) % ctx.size
        back = yield from fh.read_at(other * blk, blk)
        size = yield from fh.get_size()
        yield from fh.close()
        expected = PatternPayload(seed=7, origin=other * blk, nbytes=blk)
        return back == expected and size == ctx.size * blk

    assert all(run_world(cluster, world, main))


def test_collective_read(cluster, cont_label, world):
    blk = 64 * KiB

    def main(ctx):
        mount, _dfs = yield from make_rank_mount(cluster, cont_label, ctx)
        driver = UfsDriver(mount)
        fh = yield from MpiFile.open(ctx, "/coll-read", driver, create=True)
        if ctx.rank == 0:
            whole = PatternPayload(seed=3, origin=0, nbytes=blk * ctx.size)
            yield from fh.write_at(0, whole)
        yield from ctx.barrier()
        got = yield from fh.read_at_all(ctx.rank * blk, blk)
        yield from fh.close()
        return got == PatternPayload(seed=3, origin=ctx.rank * blk, nbytes=blk)

    assert all(run_world(cluster, world, main))


def test_native_dfs_driver(cluster, cont_label, world):
    def main(ctx):
        _mount, dfs = yield from make_rank_mount(cluster, cont_label, ctx)
        driver = DfsDriver(dfs)
        fh = yield from MpiFile.open(
            ctx, f"/dfsdrv-{ctx.rank}", driver, create=True
        )
        yield from fh.write_at(0, b"native")
        data = yield from fh.read_at(0, 6)
        yield from fh.sync()
        yield from fh.close()
        return data.materialize()

    assert run_world(cluster, world, main) == [b"native"] * 4


def test_set_size_and_get_size(cluster, cont_label, world):
    # both ROMIO drivers implement the whole Driver interface
    def main(ctx):
        mount, dfs = yield from make_rank_mount(cluster, cont_label, ctx)
        sizes = []
        for tag, driver in (("ufs", UfsDriver(mount)), ("dfs", DfsDriver(dfs))):
            fh = yield from MpiFile.open(
                ctx, f"/szf-{tag}-{ctx.rank}", driver, create=True
            )
            yield from fh.write_at(0, b"q" * 1000)
            yield from fh.sync()
            yield from fh.set_size(100)
            sizes.append((yield from fh.get_size()))
            yield from fh.close()
        return sizes

    assert run_world(cluster, world, main) == [[100, 100]] * 4


def test_ops_on_closed_file_raise(cluster, cont_label, world):
    def main(ctx):
        mount, _dfs = yield from make_rank_mount(cluster, cont_label, ctx)
        driver = UfsDriver(mount)
        fh = yield from MpiFile.open(
            ctx, f"/closed-{ctx.rank}", driver, create=True
        )
        yield from fh.close()
        try:
            yield from fh.write_at(0, b"x")
        except MpiError:
            return "raises"

    assert run_world(cluster, world, main) == ["raises"] * 4


def test_collective_overhead_bounded_for_ragged_writes(
    cluster, cont_label, world
):
    """Many small unaligned interleaved writes on DAOS: collective
    buffering adds an exchange phase that buys nothing on a lockless
    byte-granular store (the Lustre contrast ablation measures where it
    *does* pay), but its overhead must stay bounded."""
    xfer = 96 * KiB  # unaligned, interleaved among 4 ranks
    count = 8

    def build(mode):
        def main(ctx):
            mount, _dfs = yield from make_rank_mount(cluster, cont_label, ctx)
            driver = UfsDriver(mount)
            fh = yield from MpiFile.open(
                ctx, f"/ragged-{mode}", driver, create=True
            )
            yield from ctx.barrier()
            start = ctx.sim.now
            for k in range(count):
                offset = (k * ctx.size + ctx.rank) * xfer
                data = PatternPayload(seed=1, origin=offset, nbytes=xfer)
                if mode == "coll":
                    yield from fh.write_at_all(offset, data)
                else:
                    yield from fh.write_at(offset, data)
            yield from ctx.barrier()
            elapsed = ctx.sim.now - start
            yield from fh.close()
            return elapsed

        return main

    independent = max(run_world(cluster, world, build("ind")))
    from repro.mpi import MpiWorld

    world2 = MpiWorld(cluster.sim, cluster.fabric, cluster.clients, ppn=2)
    collective = max(world2.run_to_completion(build("coll")))
    # Exchange + barrier overhead, bounded: no pathological blow-up.
    assert collective < independent * 4.0
