"""SPMD job launcher and per-rank context.

``MpiWorld(sim, fabric, nodes, ppn)`` models an ``mpiexec`` invocation:
rank *r* runs on ``nodes[r // ppn]``. Rank functions are generator
functions ``fn(ctx)`` using the mpi4py-flavoured helpers on
:class:`RankCtx`::

    def rank_main(ctx):
        yield from ctx.barrier()
        total = yield from ctx.allreduce(ctx.rank, op=lambda a, b: a + b)
        return total
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional

from repro.errors import MpiError
from repro.hardware.node import ClientNode
from repro.mpi.comm import Comm
from repro.network.fabric import Fabric
from repro.sim.core import Simulator, Task


class MpiWorld:
    """One SPMD job: rank→node placement plus COMM_WORLD."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        nodes: List[ClientNode],
        ppn: int,
        nprocs: Optional[int] = None,
    ):
        if not nodes:
            raise MpiError("MpiWorld needs at least one client node")
        if ppn <= 0:
            raise MpiError("ppn must be positive")
        self.sim = sim
        self.fabric = fabric
        self.nodes = nodes
        self.ppn = ppn
        self.nprocs = nprocs if nprocs is not None else len(nodes) * ppn
        if self.nprocs > len(nodes) * ppn:
            raise MpiError(
                f"{self.nprocs} ranks do not fit on {len(nodes)} nodes x {ppn} ppn"
            )
        self.min_nic_bw = min(
            node.spec.nic_bw * node.spec.nic_rails for node in nodes
        )
        self.comm_world = Comm(self)

    def node_of(self, rank: int) -> ClientNode:
        return self.nodes[rank // self.ppn]

    def launch(self, rank_fn: Callable[["RankCtx"], Generator]) -> List[Task]:
        """Spawn every rank; returns the per-rank tasks (join them to get
        per-rank return values)."""
        tasks = []
        for rank in range(self.nprocs):
            ctx = RankCtx(self, rank)
            tasks.append(self.sim.spawn(rank_fn(ctx), f"mpi:rank{rank}"))
        return tasks

    def run_to_completion(self, rank_fn, limit: float = 1e9) -> List[Any]:
        """Convenience for tests/benchmarks: launch and drive the sim until
        all ranks finish; returns rank results in rank order. A rank's
        exception re-raises here when its result is collected."""
        tasks = [task.defuse() for task in self.launch(rank_fn)]
        results = []
        for task in tasks:
            results.append(self.sim.run_until_complete(task, limit=limit))
        return results


class RankCtx:
    """What a rank sees: identity, its node, the world, and comm helpers.

    The collective helpers bind this rank's id so rank code reads like
    mpi4py: ``value = yield from ctx.allreduce(x, op=max)``.
    """

    def __init__(self, world: MpiWorld, rank: int):
        self.world = world
        self.rank = rank
        self.node = world.node_of(rank)
        self.comm = world.comm_world

    @property
    def size(self) -> int:
        return self.world.nprocs

    @property
    def sim(self) -> Simulator:
        return self.world.sim

    # -- bound collective helpers ------------------------------------------
    def barrier(self):
        return self.comm.barrier(self.rank)

    def allgather(self, value: Any, nbytes: int = 64):
        return self.comm.allgather(self.rank, value, nbytes)

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any]):
        return self.comm.allreduce(self.rank, value, op)

    def alltoallv(self, sendmap: Dict[int, Any], nbytes_map: Dict[int, int]):
        return self.comm.alltoallv(self.rank, sendmap, nbytes_map)
