"""Work and modelled-bandwidth pins for every IOR runner path.

One small verified run per way the runner moves a transfer: the
blocking loop (file per process over DFS, POSIX and HDF5), the queued
loop at depths 1 and 4 (DFS, DAOS, shared HDF5-DAOS), the collective
aggregators at ``--aio-depth`` 0, 1 and 2 (MPIIO and HDF5), and
independent shared MPIIO. Each pins the simulator's heap pushes
(``sim._seq``, every scheduled event, including the ones that bypass
``Simulator.schedule``) and the best write and read bandwidth, so a
refactor of the loops that adds or drops one event, or moves simulated
time, fails here.
"""

import pytest

from repro.cluster import small_cluster
from repro.ior import IorParams, run_ior
from repro.units import MiB

#: name -> (IorParams overrides, client nodes)
CASES = {
    "dfs-fpp": (dict(api="DFS", file_per_proc=True), 1),
    "posix-fpp": (dict(api="POSIX", file_per_proc=True), 1),
    "hdf5-fpp": (dict(api="HDF5", file_per_proc=True), 1),
    "dfs-fpp-q1": (dict(api="DFS", file_per_proc=True, aio_queue_depth=1), 1),
    "dfs-fpp-q4": (dict(api="DFS", file_per_proc=True, aio_queue_depth=4), 1),
    "daos-fpp-q1": (dict(api="DAOS", file_per_proc=True, aio_queue_depth=1), 1),
    "daos-fpp-q4": (dict(api="DAOS", file_per_proc=True, aio_queue_depth=4), 1),
    "hdf5-daos-shared-q4": (dict(api="HDF5-DAOS", aio_queue_depth=4), 1),
    "mpiio-coll-d0": (dict(api="MPIIO", collective=True), 2),
    "mpiio-coll-d1": (dict(api="MPIIO", collective=True, aio_queue_depth=1), 2),
    "mpiio-coll-d2": (dict(api="MPIIO", collective=True, aio_queue_depth=2), 2),
    "hdf5-coll-d0": (dict(api="HDF5", collective=True), 2),
    "hdf5-coll-d1": (dict(api="HDF5", collective=True, aio_queue_depth=1), 2),
    "hdf5-coll-d2": (dict(api="HDF5", collective=True, aio_queue_depth=2), 2),
    "mpiio-indep-shared": (dict(api="MPIIO"), 2),
}

#: name -> (heap pushes, max write bandwidth, max read bandwidth)
PINS = {
    "dfs-fpp": (839, 6447689375.094333, 10458482376.420168),
    "posix-fpp": (911, 6317791138.014203, 10120943684.257727),
    "hdf5-fpp": (1307, 1662615478.8177528, 1876602550.7834647),
    "dfs-fpp-q1": (935, 6447689375.094333, 10458482376.420168),
    "dfs-fpp-q4": (1455, 14273004402.178799, 17717615487.94667),
    "daos-fpp-q1": (719, 6447689375.094333, 11559327265.547844),
    "daos-fpp-q4": (663, 14273004402.178799, 21125989393.354744),
    "hdf5-daos-shared-q4": (1249, 6010009573.7122135, 20869850625.419575),
    "mpiio-coll-d0": (2098, 2423712437.649158, 1823212018.5171847),
    "mpiio-coll-d1": (2098, 2423712437.649158, 1823212018.5171847),
    "mpiio-coll-d2": (2553, 3897311667.3467536, 2934968874.5581794),
    "hdf5-coll-d0": (2868, 2708753753.0053797, 1071670480.5896063),
    "hdf5-coll-d1": (2868, 2708753753.0053797, 1071670480.5896063),
    "hdf5-coll-d2": (3227, 4042924214.3626003, 1708769902.5261292),
    "mpiio-indep-shared": (1650, 11861667550.527975, 17495341804.07008),
}


def _run(name):
    overrides, client_nodes = CASES[name]
    cluster = small_cluster(
        server_nodes=2, client_nodes=client_nodes, targets_per_engine=2
    )
    params = IorParams(block_size=4 * MiB, transfer_size=MiB, verify=True,
                       **overrides)
    result = run_ior(cluster, params, ppn=4)
    assert result.verify_errors == 0
    return cluster.sim._seq, result.max_write_bw, result.max_read_bw


@pytest.mark.parametrize("name", CASES)
def test_heap_pushes_and_bandwidth_are_pinned(name):
    assert _run(name) == PINS[name]
