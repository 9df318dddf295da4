"""Ablation A4: the HDF5 alignment property rescues file-per-process.

The Figure-1 HDF5 gap is driven by raw data living at unaligned offsets
(HDF5 default alignment=1) which engages the sec2 staging path through
DFuse. Creating the files with alignment = DFS chunk size restores
direct I/O — turning the "much lower" HDF5 lines back into MPI-IO-class
lines. (This is the actionable tuning recommendation of the study.)
"""

from conftest import run_once

from repro.cluster import nextgenio
from repro.daos.api import PatternPayload
from repro.dfs import Dfs
from repro.dfuse import DFuseMount
from repro.hdf5 import H5File, NativeVol, Sec2Vfd
from repro.units import GiB, MiB


def _h5_fpp_write_bw(alignment: int, procs: int = 16, nbytes: int = 16 * MiB):
    cluster = nextgenio(client_nodes=1)
    client = cluster.new_client(0)

    def setup():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container(
            f"h5align-{alignment}", oclass="S2"
        )
        dfs = yield from Dfs.mount(cont)
        return dfs

    dfs = cluster.run(setup())

    def writer(i):
        mount = DFuseMount(dfs)

        def go():
            h5 = yield from H5File.create(
                NativeVol(Sec2Vfd(mount)), f"/f{i}.h5", alignment=alignment
            )
            ds = yield from h5.create_dataset("data", (nbytes,), dtype="u1")
            start = cluster.sim.now
            for k in range(nbytes // MiB):
                yield from ds.write(
                    (k * MiB,), (MiB,),
                    PatternPayload(seed=i, origin=k * MiB, nbytes=MiB),
                )
            elapsed = cluster.sim.now - start
            yield from h5.close()
            return elapsed

        return go()

    tasks = [cluster.sim.spawn(writer(i)).defuse() for i in range(procs)]
    slowest = max(cluster.sim.run_until_complete(t) for t in tasks)
    return procs * nbytes / slowest


def test_alignment_rescues_hdf5(benchmark, bench_scale):
    def sweep():
        return {
            "default (1 B)": _h5_fpp_write_bw(1),
            "aligned (1 MiB)": _h5_fpp_write_bw(MiB),
        }

    data = run_once(benchmark, sweep)
    print()
    for label, bw in data.items():
        print(f"HDF5 fpp write, alignment {label:>15s}: {bw / GiB:6.2f} GiB/s")
    assert data["aligned (1 MiB)"] > 2.0 * data["default (1 B)"]
