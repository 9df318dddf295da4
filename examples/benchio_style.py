#!/usr/bin/env python
"""benchio-style bulk I/O comparison (the paper's reference [17]).

benchio is the first author's bulk-I/O benchmark: every rank writes one
large contiguous slab of a shared global array, comparing access
strategies. This port compares four ways of writing the same 1 GiB
global array from 64 ranks and prints the classic table.

Run:  python examples/benchio_style.py
"""

from repro.cluster import nextgenio
from repro.daos.api import PatternPayload
from repro.dfs import Dfs
from repro.dfuse import DFuseMount
from repro.mpi import MpiWorld
from repro.mpiio import MpiFile
from repro.units import GiB, MiB, fmt_bw

GLOBAL_BYTES = 1 * GiB


def strategy_runner(cluster, label, make_writer):
    client = cluster.new_client(0)

    def setup():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container(f"benchio-{label}",
                                                oclass="SX")
        yield from Dfs.mount(cont)
        return f"benchio-{label}"

    cont_label = cluster.run(setup())
    world = MpiWorld(cluster.sim, cluster.fabric, cluster.clients, ppn=16)
    slab = GLOBAL_BYTES // world.nprocs

    def rank_main(ctx):
        rank_client = cluster.new_client(cluster.clients.index(ctx.node))
        pool = yield from rank_client.connect_pool("tank")
        cont = yield from pool.open_container(cont_label)
        dfs = yield from Dfs.mount(cont)
        writer = make_writer(ctx, dfs)
        yield from ctx.barrier()
        start = ctx.sim.now
        payload = PatternPayload(seed=1, origin=ctx.rank * slab, nbytes=slab)
        yield from writer(ctx.rank * slab, payload)
        end = yield from ctx.allreduce(ctx.sim.now, op=max)
        return GLOBAL_BYTES / (end - start)

    return min(world.run_to_completion(rank_main))


def main() -> None:
    cluster = nextgenio(client_nodes=4)

    def dfs_writer(ctx, dfs):
        def write(offset, payload):
            if ctx.rank == 0:
                handle = yield from dfs.open_file(
                    "/global.dat", create=True, oclass="SX"
                )
                yield from ctx.barrier()
            else:
                yield from ctx.barrier()
                handle = yield from dfs.open_file("/global.dat")
            yield from handle.write(offset, payload)
            handle.close()

        return write

    def posix_writer(ctx, dfs):
        mount = DFuseMount(dfs)

        def write(offset, payload):
            if ctx.rank == 0:
                handle = yield from mount.open("/posix.dat", ("w", "creat"))
                yield from ctx.barrier()
            else:
                yield from ctx.barrier()
                handle = yield from mount.open("/posix.dat", ("r", "w"))
            yield from handle.pwrite(offset, payload)
            yield from handle.close()

        return write

    def mpiio_writer(collective):
        def factory(ctx, dfs):
            mount = DFuseMount(dfs)

            def write(offset, payload):
                fh = yield from MpiFile.open(
                    ctx, "/mpiio.dat", mount, create=True
                )
                if collective:
                    yield from fh.write_at_all(offset, payload)
                else:
                    yield from fh.write_at(offset, payload)
                yield from fh.close()

            return write

        return factory

    strategies = [
        ("DFS shared file", dfs_writer),
        ("POSIX (DFuse) shared", posix_writer),
        ("MPI-IO independent", mpiio_writer(False)),
        ("MPI-IO collective", mpiio_writer(True)),
    ]
    print(f"benchio-style: 64 ranks, {GLOBAL_BYTES // GiB} GiB global array, "
          f"{GLOBAL_BYTES // 64 // MiB} MiB slab per rank\n")
    for label, factory in strategies:
        bandwidth = strategy_runner(cluster, label.split()[0].lower()
                                    + label.split()[-1], factory)
        print(f"  {label:24s} {fmt_bw(bandwidth):>14s}")


if __name__ == "__main__":
    main()
