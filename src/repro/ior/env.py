"""Storage environments wiring IOR ranks to a system under test."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.cache.config import CacheConfig
from repro.cluster.builder import Cluster, LustreCluster
from repro.dfs import Dfs
from repro.dfuse import DFuseMount
from repro.errors import FsError
from repro.ior import config
from repro.ior.config import IorParams
from repro.mpi import MpiWorld


@dataclass
class RankStorage:
    """What one rank gets from its environment."""

    mount: Optional[object] = None  # FileSystem (DFuse or Lustre)
    dfs: Optional[Dfs] = None
    cont: Optional[object] = None  # ContainerHandle


class DaosIorEnv:
    """DAOS under test: one fresh container per environment, per-rank
    client contexts, DFS mounts and DFuse mounts."""

    def __init__(self, cluster: Cluster, params: IorParams):
        self.cluster = cluster
        self.params = params
        self.label = f"ior-{next(cluster.daos.label_seq):04d}"

    def prepare(self) -> Generator:
        """Task helper: create the container and the test directory."""
        client = self.cluster.new_client(0)
        pool = yield from client.connect_pool(self.cluster.pool.label)
        cont = yield from pool.create_container(
            self.label,
            oclass=self.params.oclass or "SX",
            chunk_size=self.params.chunk_size,
        )
        dfs = yield from Dfs.mount(cont)
        yield from dfs.mkdir(config.TEST_DIR)
        dfs.umount()
        return None

    def rank_setup(self, ctx) -> Generator:
        """Task helper: per-rank client + mounts."""
        node_index = self.cluster.clients.index(ctx.node)
        client = self.cluster.new_client(node_index)
        pool = yield from client.connect_pool(self.cluster.pool.label)
        cont = yield from pool.open_container(self.label)
        cache = None
        if self.params.cache_mode != "none":
            # each of the node's ppn ranks gets an equal slice of the
            # node-level page-cache budget
            cache = CacheConfig(mode=self.params.cache_mode).resolve(
                ctx.node.spec, ctx.world.ppn
            )
        dfs = yield from Dfs.mount(cont, cache=cache)
        return RankStorage(
            mount=DFuseMount(dfs, cache=cache), dfs=dfs, cont=cont
        )


class LustreIorEnv:
    """The parallel-filesystem baseline under the same IOR workloads."""

    def __init__(self, cluster: LustreCluster, params: IorParams):
        self.cluster = cluster
        self.params = params

    def prepare(self) -> Generator:
        mount = self.cluster.mount(0, name="ior-prep")
        try:
            yield from mount.mkdir(config.TEST_DIR)
        except FsError as err:
            if err.errno_name != "EEXIST":  # left by a previous run: fine
                raise
        return None

    def rank_setup(self, ctx) -> Generator:
        node_index = self.cluster.clients.index(ctx.node)
        yield 0.0
        return RankStorage(mount=self.cluster.mount(node_index,
                                                    name=f"ior-r{ctx.rank}"))


#: simulated seconds a run over :func:`launch`'s world may take
LIMIT = 1e7


def launch(cluster, params: IorParams, ppn: int) -> tuple:
    """Lay an MPI world over every client node of ``cluster`` and prepare
    the storage environment matching the system it booted; returns
    ``(env, world)``."""
    world = MpiWorld(cluster.sim, cluster.fabric, list(cluster.clients),
                     ppn)  # typed errors
    on_lustre = isinstance(cluster, LustreCluster)
    env = (LustreIorEnv if on_lustre else DaosIorEnv)(cluster, params)
    cluster.run(env.prepare())
    return env, world
