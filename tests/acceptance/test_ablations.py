"""Acceptance tests: this reproduction's own ablations and extensions.

The claims of EXPERIMENTS.md "Ablations and extensions" that no other
suite owns (A1-A4, E1, the DAOS VOL, rebuild throttling, the field-size
crossover), each at the cheapest scale where its inequality still holds
with margin. DESIGN.md §4 lists, per claim, the model change that makes
the test fail.
"""

from repro.cluster import build_lustre_cluster, nextgenio
from repro.daos.api import PatternPayload
from repro.daos.oclass import RP_2G1
from repro.dfs import Dfs
from repro.dfuse import DFuseMount
from repro.fdb import FdbParams, build_report, run_fdb
from repro.hdf5 import H5File, NativeVol, Sec2Vfd
from repro.posix.vfs import normalize
from repro.rebuild import scheduler
from repro.units import KiB, MiB
from tests.acceptance.test_paper_shapes import point


def test_a1_intermediate_classes_bridge_s2_and_sx():
    """S1 -> S2 -> S4 -> S8 -> SX, contended fpp writes (8 nodes x 4 ppn,
    2 MiB blocks): S4 and S8 sit 1.2-1.3x and 0.66-0.84x from their
    neighbours, never pathological."""
    writes = {oc: point(8, "DFS", oc, block="2m", ppn=4)[0]
              for oc in ("S2", "S4", "S8", "SX")}
    assert writes["S4"] > 0.5 * max(writes["S2"], writes["S8"])
    assert writes["S8"] > 0.5 * max(writes["S4"], writes["SX"])


def test_a2_dfuse_overhead_shrinks_with_transfer_size():
    """DFuse/DFS write ratio, 1 node x 4 ppn, 2 MiB blocks: 0.82 at
    64 KiB transfers, 0.98 at the paper's 1 MiB."""
    ratio = {}
    for transfer in ("64k", "1m"):
        dfs_w, _ = point(1, "DFS", "S2", block="2m", transfer=transfer, ppn=4)
        fuse_w, _ = point(1, "POSIX", "S2", block="2m", transfer=transfer,
                          ppn=4)
        ratio[transfer] = fuse_w / dfs_w
    assert ratio["64k"] < ratio["1m"]
    assert ratio["1m"] > 0.9


def _ldlm_ops(cluster, path="/ior/testFile"):
    ino = cluster.fs.mds.resolve(normalize(path)).ino
    return sum(space.grants + space.revocations
               for ost in cluster.fs.osts
               for key, space in ost.locks.items() if key[0] == ino)


def test_a3_collective_buffering_helps_lustre_not_daos():
    """Unaligned interleaved shared write, 50 kB transfers, 2 nodes x
    4 ppn, 1 MB blocks: on lockless DAOS independent I/O wins 2.0x; on
    Lustre collective buffering cuts LDLM traffic 291 -> 16 operations
    and bandwidth does not fall (1.9x)."""
    shape = dict(fpp=False, interleaved=True, block=1000 * 1000,
                 transfer=50 * 1000, ppn=4)
    daos = {coll: point(2, "MPIIO", "SX", collective=coll, **shape)[0]
            for coll in (False, True)}
    assert daos[False] > daos[True]
    lustre = {}
    for coll in (False, True):
        cluster = build_lustre_cluster(server_nodes=8, client_nodes=2,
                                       stripe_count=8)
        write_bw, _ = point(2, "MPIIO", None, cluster=cluster,
                            collective=coll, **shape)
        lustre[coll] = (write_bw, _ldlm_ops(cluster))
    assert lustre[True][1] * 5 < lustre[False][1]
    assert lustre[True][0] > 0.6 * lustre[False][0]


def _h5_fpp_write_bw(alignment, procs=4, nbytes=4 * MiB):
    """``procs`` sec2-over-DFuse writers, one HDF5 file each, created
    with the given ``alignment`` property."""
    cluster = nextgenio(client_nodes=1)
    client = cluster.new_client(0)

    def setup():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("h5align", oclass="S2")
        return (yield from Dfs.mount(cont))

    dfs = cluster.run(setup())

    def writer(i):
        h5 = yield from H5File.create(
            NativeVol(Sec2Vfd(DFuseMount(dfs))), f"/f{i}.h5",
            alignment=alignment,
        )
        ds = yield from h5.create_dataset("data", nbytes)
        start = cluster.sim.now
        for k in range(nbytes // MiB):
            yield from ds.write(
                k * MiB, PatternPayload(seed=i, origin=k * MiB, nbytes=MiB)
            )
        elapsed = cluster.sim.now - start
        yield from h5.close()
        return elapsed

    tasks = [cluster.sim.spawn(writer(i)).defuse() for i in range(procs)]
    slowest = max(cluster.sim.run_until_complete(t) for t in tasks)
    return procs * nbytes / slowest


def test_a4_hdf5_alignment_rescues_file_per_process():
    """4 writers x 4 MiB: alignment = 1 MiB (the DFS chunk) restores
    direct I/O, 5.6x the default's staged writes."""
    assert _h5_fpp_write_bw(MiB) > 2.0 * _h5_fpp_write_bw(1)


def test_e1_native_array_at_least_dfs_at_least_posix():
    """1 node x 4 ppn, 4 MiB blocks, both modes: DAOS-array == DFS, and
    DFS leads POSIX-over-DFuse by 2 %."""
    for fpp in (True, False):
        daos_w, dfs_w, posix_w = (
            point(1, api, "SX", fpp=fpp, block="4m", ppn=4)[0]
            for api in ("DAOS", "DFS", "POSIX"))
        assert daos_w >= dfs_w * 0.97
        assert dfs_w > posix_w  # the FUSE crossing is never free


def test_daos_vol_moves_hdf5_to_dfs_class_bandwidth():
    """The Figure 2 point geometry (1 node x 4 ppn, 4 MiB blocks, SX):
    HDF5-DAOS writes at 1.0x DFS and 3.7x the native sec2 fpp path;
    depth 4 beats sync by 1.1-2.6x on every async-capable cell."""
    def cell(api, fpp, depth=0, **ior):
        return point(1, api, "SX", fpp=fpp, block="4m", ppn=4,
                     cb_buffer="1m", aio_queue_depth=depth, **ior)

    native_w, _ = cell("HDF5", True)
    for fpp in (True, False):
        vol_w, vol_r = cell("HDF5-DAOS", fpp)
        dfs_w, dfs_r = cell("DFS", fpp)
        assert vol_w >= 0.8 * dfs_w and vol_r >= 0.8 * dfs_r
        assert cell("HDF5-DAOS", fpp, depth=4)[0] > vol_w
        assert cell("DFS", fpp, depth=4)[0] > dfs_w
        if fpp:
            assert vol_w > 2 * native_w
    # shared-file collective HDF5: the aggregators pipeline cb_buffer chunks
    assert (cell("HDF5", False, depth=4, collective=True)[0]
            > cell("HDF5", False, collective=True)[0])


def _open_rebuild_window(cluster, window_bytes):
    """Exclude one replica target, write ``window_bytes`` it misses and
    reintegrate — returning with the background resync still draining, so
    the caller's workload races real rebuild traffic."""
    client = cluster.new_client(0)

    def go():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("rebuild-window",
                                                oclass="RP_2G1")
        obj = cont.open_object((yield from cont.alloc_oid(RP_2G1)))
        victim = obj.layout.targets_for_dkey(0)[0]
        uuid = pool.pool_map.uuid
        yield from cluster.daos.exclude_target(uuid, victim)
        yield from pool.refresh_map()
        yield from obj.write(
            0, PatternPayload(seed=8, origin=0, nbytes=window_bytes),
            chunk_size=MiB,
        )
        yield from cluster.daos.reintegrate_target(uuid, victim)
        obj.close()

    cluster.run(go())


def test_rebuild_throttle_bounds_the_dent_in_foreground_bandwidth(monkeypatch):
    """POSIX fpp on RP_2GX (1 node x 2 ppn, 2 MiB blocks) racing a 32 MiB
    resync: invisible at throttle fraction 0.05, writes at 0.45x healthy
    at the full bottleneck; reads ride the surviving replica."""
    def run(fraction=None):
        cluster = nextgenio(client_nodes=1)
        if fraction is not None:
            monkeypatch.setattr(scheduler, "REBUILD_FRACTION", fraction)
            _open_rebuild_window(cluster, 32 * MiB)
        return point(1, "POSIX", "RP_2GX", block="2m", ppn=2,
                     cluster=cluster)

    healthy_w, healthy_r = run()
    tight_w, tight_r = run(0.05)
    open_w, open_r = run(1.0)
    assert tight_w >= healthy_w * 0.95
    assert open_w < healthy_w * 0.9
    assert tight_w >= open_w
    assert min(tight_r, open_r) >= healthy_r * 0.9


def test_fdb_native_mappings_win_small_fields_dfs_wins_large():
    """8 fields per cell, depth 4, async: at 64 KiB kv and array archive
    12.9x and 2.7x faster than file-per-field DFS; at 16 MiB striped DFS
    beats the one-target kv value 2.2x (1.06x unstriped), so the
    crossover lies inside the grid."""
    def archive_bw(backend, size):
        result, _cluster = run_fdb(FdbParams(
            backend=backend, field_bytes=size, depth=4, n_params=2,
            n_steps=4))
        return build_report(result)["archive"]["bandwidth"]

    small = {b: archive_bw(b, 64 * KiB) for b in ("kv", "array", "dfs")}
    assert small["kv"] > small["dfs"]
    assert small["array"] > small["dfs"]
    assert archive_bw("dfs", 16 * MiB) > 1.5 * archive_bw("kv", 16 * MiB)
