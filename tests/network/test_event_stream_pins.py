"""Popped-event pins for a few reduced-scale runs across the stack.

Each run records every event the simulator pops as ``(time.hex(),
seq)``: its exact simulated time and its push number. The pops of a
drained heap come out in ``(time, seq)`` order, so the list is the
run's whole push stream, and its digest with the push count
(``sim._seq``) pins it. Callback names are left out, so a refactor of
who handles an event passes as long as every event still happens at
the same instant and in the same order. The runs cover the message
paths of the fabric: engine RPCs under DFS and HDF5-DAOS I/O, many
small tenant operations under QoS, an FDB key-value grid, and Raft
traffic across a partition and its heal.
"""

import hashlib
import heapq

import pytest

from repro.cluster import small_cluster
from repro.consensus.raft import RaftCluster
from repro.consensus.state_machine import AppendLogMachine
from repro.fdb import FdbParams, run_fdb
from repro.hardware.specs import FabricSpec
from repro.ior import IorParams, run_ior
from repro.network import Fabric
from repro.sim import RngStreams, Simulator
from repro.tenants import (
    Dispatcher,
    PoissonArrivals,
    ServingConfig,
    make_tenants,
)
from repro.units import KiB, MiB


def _dfs_fpp():
    cluster = small_cluster(server_nodes=2, client_nodes=1)
    params = IorParams(api="DFS", file_per_proc=True,
                       block_size=4 * MiB, transfer_size=MiB)
    run_ior(cluster, params, ppn=4)
    return cluster.sim


def _hdf5_daos_shared_q4():
    cluster = small_cluster(server_nodes=2, client_nodes=1)
    params = IorParams(api="HDF5-DAOS", aio_queue_depth=4,
                       block_size=4 * MiB, transfer_size=MiB)
    run_ior(cluster, params, ppn=4)
    return cluster.sim


def _tenants_qos():
    cluster = small_cluster()
    fleet = make_tenants(8, rate=4.0)
    config = ServingConfig(duration=1.0, qos_enabled=True)
    dispatcher = Dispatcher(
        cluster, fleet, PoissonArrivals(cluster.rng), config
    )
    cluster.run(dispatcher.serve())
    return cluster.sim


def _fdb_kv():
    _result, cluster = run_fdb(FdbParams(
        backend="kv", index="kv", n_params=2, n_steps=3,
        field_bytes=64 * KiB, depth=4,
    ))
    return cluster.sim


def _raft_partition_heal():
    sim = Simulator()
    fabric = Fabric(sim, FabricSpec())
    addrs = [fabric.add_node(f"n{i}", 10e9) for i in range(3)]
    service = RaftCluster(sim, fabric, addrs, AppendLogMachine,
                          rng=RngStreams(seed=13))
    sim.run(until=1.0)
    leader = service.leader()
    for i in range(3):
        leader.propose(("before", i))
    sim.run(until=1.2)
    name = addrs[leader.node_id].name
    others = [a.name for a in addrs if a.name != name]
    fabric.partition([name], others)
    leader.propose(("isolated", 0))
    sim.run(until=2.5)
    fabric.heal()
    sim.run(until=4.0)
    successor = service.leader()
    assert successor is not leader and fabric.dropped_messages > 0
    successor.propose(("after", 0))
    sim.run(until=4.5)
    return sim


RUNS = {
    "dfs-fpp": _dfs_fpp,
    "hdf5-daos-shared-q4": _hdf5_daos_shared_q4,
    "tenants-qos": _tenants_qos,
    "fdb-kv": _fdb_kv,
    "raft-partition-heal": _raft_partition_heal,
}

#: name -> (heap pushes, sha256 of the popped (time.hex(), seq) list)
PINS = {
    "dfs-fpp": (
        839, "62a80c67c6de08d293b01a341183489633c8d74ea1df6db4728ba17f261bf628"),
    "hdf5-daos-shared-q4": (
        1249, "b5a1301c0dcadcd8d78d7a89a6744fc69c09583db46c15e6274e141bb9fe3193"),
    "tenants-qos": (
        2433, "e7af65b723b8aaf1a003cdf0a554d7087196b23bea41c0a045948bdeeff42b13"),
    "fdb-kv": (
        676, "0f16d221742a583620c1d38d4914271416cf780a0513f7a7714b48576b59041f"),
    "raft-partition-heal": (
        917, "15075b2d052500b83e6c495a04e46ea9d5d4153688d26e3a5dc760679f378a74"),
}


@pytest.mark.parametrize("name", RUNS)
def test_popped_event_stream_is_pinned(monkeypatch, name):
    popped = []
    pop = heapq.heappop

    def recording_pop(heap):
        entry = pop(heap)
        popped.append((entry[0].hex(), entry[1]))
        return entry

    monkeypatch.setattr(heapq, "heappop", recording_pop)
    sim = RUNS[name]()
    digest = hashlib.sha256(repr(popped).encode()).hexdigest()
    assert (sim._seq, digest) == PINS[name]
