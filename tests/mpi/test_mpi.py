"""Tests for the simulated MPI runtime and collectives."""

import pytest

from repro.errors import MpiError
from repro.hardware import ClientNode, NodeSpec
from repro.hardware.specs import FabricSpec
from repro.mpi import MpiWorld
from repro.network import Fabric
from repro.sim import Simulator


def make_world(n_nodes=2, ppn=4, nprocs=None):
    sim = Simulator()
    fabric = Fabric(sim, FabricSpec())
    nodes = [
        ClientNode(fabric, f"c{i}", NodeSpec())
        for i in range(n_nodes)
    ]
    world = MpiWorld(sim, fabric, nodes, ppn, nprocs)
    return sim, world


def test_rank_placement_follows_ppn():
    sim, world = make_world(n_nodes=3, ppn=2)
    assert world.nprocs == 6
    assert world.node_of(0).name == "c0"
    assert world.node_of(1).name == "c0"
    assert world.node_of(2).name == "c1"
    assert world.node_of(5).name == "c2"


def test_too_many_ranks_rejected():
    sim = Simulator()
    fabric = Fabric(sim, FabricSpec())
    nodes = [ClientNode(fabric, "c0", NodeSpec())]
    with pytest.raises(MpiError):
        MpiWorld(sim, fabric, nodes, ppn=2, nprocs=3)


def test_barrier_synchronizes_ranks():
    sim, world = make_world()
    after = []

    def main(ctx):
        yield 0.001 * ctx.rank  # staggered arrivals
        yield from ctx.barrier()
        after.append((ctx.rank, sim.now))

    world.run_to_completion(main)
    times = {t for _, t in after}
    assert len(times) == 1  # everyone leaves together
    assert times.pop() >= 0.001 * (world.nprocs - 1)


def test_allgather_everyone_gets_all():
    sim, world = make_world(n_nodes=1, ppn=3)

    def main(ctx):
        return (yield from ctx.allgather(chr(ord("a") + ctx.rank)))

    results = world.run_to_completion(main)
    assert results == [["a", "b", "c"]] * 3


def test_reduce_and_allreduce():
    sim, world = make_world(n_nodes=2, ppn=2)

    def main(ctx):
        return (yield from ctx.allreduce(ctx.rank + 1, op=max))

    assert world.run_to_completion(main) == [4] * 4


def test_alltoallv_exchanges_payloads():
    sim, world = make_world(n_nodes=1, ppn=3)

    def main(ctx):
        sendmap = {
            dst: f"{ctx.rank}->{dst}" for dst in range(ctx.size) if dst != ctx.rank
        }
        sizes = {dst: 1024 for dst in sendmap}
        received = yield from ctx.alltoallv(sendmap, sizes)
        return received

    results = world.run_to_completion(main)
    assert results[0] == {1: "1->0", 2: "2->0"}
    assert results[1] == {0: "0->1", 2: "2->1"}


def test_alltoallv_cost_scales_with_volume():
    def elapsed(nbytes):
        sim, world = make_world(n_nodes=2, ppn=1)

        def main(ctx):
            other = 1 - ctx.rank
            yield from ctx.alltoallv({other: b""}, {other: nbytes})
            return sim.now

        return max(world.run_to_completion(main))

    small = elapsed(1024)
    big = elapsed(1024 * 1024 * 128)
    assert big > small * 10


def test_collective_sequence_matching_over_many_rounds():
    sim, world = make_world(n_nodes=1, ppn=4)

    def main(ctx):
        acc = []
        for round_no in range(5):
            value = yield from ctx.allreduce(round_no * 100 + ctx.rank, op=min)
            acc.append(value)
        return acc

    results = world.run_to_completion(main)
    assert results == [[0, 100, 200, 300, 400]] * 4


def test_double_join_same_collective_is_error():
    sim, world = make_world(n_nodes=1, ppn=2)
    comm = world.comm_world
    comm._join(0, None, lambda c: 0.0)
    with pytest.raises(MpiError):
        # simulate a broken program where rank 0 calls again while the
        # matching instance is still pending and rank 1 never arrived
        comm._counters[0] = 0
        comm._join(0, None, lambda c: 0.0)
