#!/usr/bin/env python
"""Parallel checkpoint/restart with HDF5 — through two connectors.

A classic HPC pattern on top of the full interface stack this repo
builds: an SPMD job writes a row-decomposed 2-D field into one shared
HDF5 file, then a *differently-sized* job restarts from it — the
self-describing format making redistribution trivial. The field is one
byte dataset of ROWS x COLS cells stored row-major: row ``r`` lives at
byte ``r * COLS``, so each rank's block of rows is one byte range.

Act 1 rides the paper's POSIX stack: HDF5 over collective MPI-IO over a
DFuse mount.  Act 2 writes the same checkpoint through the DAOS VOL
connector (`repro.hdf5.DaosVol`): the dataset lands in a DAOS array and
the catalog in a KV object — no mount, no MPI-IO, no staging — while
the H5File/Dataset calls stay identical.

Run:  python examples/checkpoint_hdf5.py
"""

from repro.cluster import nextgenio
from repro.daos.api import PatternPayload
from repro.dfs import Dfs
from repro.dfuse import DFuseMount
from repro.hdf5 import DaosVol, H5File, MpioVfd, NativeVol
from repro.mpi import MpiWorld
from repro.units import fmt_bw

ROWS, COLS = 512, 4096  # global grid of one-byte cells


def make_mount(cluster, ctx, cont_label):
    client = cluster.new_client(cluster.clients.index(ctx.node))

    def go():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.open_container(cont_label)
        dfs = yield from Dfs.mount(cont)
        return DFuseMount(dfs)

    return go()


def mpio_storage(ctx, cluster, cont_label):
    mount = yield from make_mount(cluster, ctx, cont_label)
    return NativeVol(MpioVfd(ctx, mount, collective=True))


def daos_storage(ctx, cluster, cont_label):
    client = cluster.new_client(cluster.clients.index(ctx.node))
    pool = yield from client.connect_pool("tank")
    cont = yield from pool.open_container(cont_label)
    return DaosVol(cont)


def my_slab(ctx):
    my_rows = ROWS // ctx.size
    row0 = ctx.rank * my_rows
    return row0, my_rows


def write_slab(ctx, field):
    row0, my_rows = my_slab(ctx)
    payload = PatternPayload(seed=7, origin=row0 * COLS,
                             nbytes=my_rows * COLS)
    yield from field.write(row0 * COLS, payload)
    return None


def verify_slab(ctx, field):
    row0, my_rows = my_slab(ctx)
    data = yield from field.read(row0 * COLS, my_rows * COLS)
    expected = PatternPayload(seed=7, origin=row0 * COLS,
                              nbytes=my_rows * COLS)
    return data == expected


def checkpoint_mpio(ctx, cluster, cont_label):
    vol = yield from mpio_storage(ctx, cluster, cont_label)
    h5 = yield from H5File.create(vol, "/ckpt.h5")
    field = yield from h5.create_dataset("field", ROWS * COLS)
    start = ctx.sim.now
    yield from write_slab(ctx, field)
    yield from h5.close()
    yield from ctx.barrier()
    return ROWS * COLS / (ctx.sim.now - start)


def checkpoint_daos(ctx, cluster, cont_label):
    # No collective create here: rank 0 publishes the KV catalog, the
    # other ranks open it after a barrier and write independently.
    vol = yield from daos_storage(ctx, cluster, cont_label)
    if ctx.rank == 0:
        h5 = yield from H5File.create(vol, "/ckpt-daos.h5")
        field = yield from h5.create_dataset("field", ROWS * COLS)
        yield from h5.flush()
        yield from ctx.barrier()
    else:
        yield from ctx.barrier()
        h5 = yield from H5File.open(vol, "/ckpt-daos.h5")
        field = h5.dataset("field")
    start = ctx.sim.now
    yield from write_slab(ctx, field)
    yield from h5.close()
    yield from ctx.barrier()
    return ROWS * COLS / (ctx.sim.now - start)


def restart(ctx, cluster, cont_label, make_storage, path):
    storage = yield from make_storage(ctx, cluster, cont_label)
    h5 = yield from H5File.open(storage, path)
    field = h5.dataset("field")
    assert field.nbytes == ROWS * COLS  # the file describes its extent
    ok = yield from verify_slab(ctx, field)  # new decomposition
    yield from h5.close()
    return ok


def main() -> None:
    cluster = nextgenio(client_nodes=4)
    client = cluster.new_client(0)

    def setup():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("ckpt", oclass="SX")
        yield from Dfs.mount(cont)
        return "ckpt"

    label = cluster.run(setup())

    for name, ckpt, storage, path in [
        ("mpio-vfd", checkpoint_mpio, mpio_storage, "/ckpt.h5"),
        ("daos-vol", checkpoint_daos, daos_storage, "/ckpt-daos.h5"),
    ]:
        writers = MpiWorld(cluster.sim, cluster.fabric, cluster.clients,
                           ppn=4)
        rates = writers.run_to_completion(
            lambda ctx: ckpt(ctx, cluster, label)
        )
        print(f"checkpoint [{name}]: {writers.nprocs} ranks wrote "
              f"{ROWS}x{COLS} at {fmt_bw(max(rates))}")

        # restart with half the ranks — the file describes itself
        readers = MpiWorld(cluster.sim, cluster.fabric,
                           cluster.clients[:2], ppn=4)
        verdicts = readers.run_to_completion(
            lambda ctx: restart(ctx, cluster, label, storage, path)
        )
        print(f"restart [{name}]: {readers.nprocs} ranks verified their "
              f"slabs: {'all OK' if all(verdicts) else 'CORRUPTION'}")


if __name__ == "__main__":
    main()
