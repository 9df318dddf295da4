"""Builders producing a booted simulated cluster."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.daos.client import DaosClient
from repro.daos.system import DaosSystem, PoolMap
from repro.hardware.node import ClientNode, ServerNode
from repro.hardware.specs import EngineSpec, FabricSpec, NodeSpec
from repro.network.fabric import Fabric
from repro.sim.core import Simulator
from repro.sim.rng import RngStreams
from repro.units import GiB


@dataclass
class _Machine:
    """What both systems boot on: simulator, fabric, nodes and the run's
    RNG streams, with the two verbs every front-end drives them by."""

    sim: Simulator
    fabric: Fabric
    servers: List[ServerNode]
    clients: List[ClientNode]
    rng: RngStreams

    def run(self, gen, limit: float = 1e9):
        """Spawn a task and drive the simulation until it completes."""
        task = self.sim.spawn(gen)
        return self.sim.run_until_complete(task, limit=limit)

    def observe(self, tracing: bool = True,
                timeline_interval: Optional[float] = None,
                slo_rules=None):
        """Enable metrics, and span tracing, on this cluster's simulator;
        returns the ``(tracer, registry)`` pair. Purely additive: the
        simulated execution is identical with or without it (pinned by
        tests/faults/test_determinism.py and
        tests/obs/test_timeline_determinism.py). ``timeline_interval``
        additionally attaches the sim-time metrics scraper
        (``sim.timeline``); ``slo_rules`` are rule strings per
        :mod:`repro.obs.slo`."""
        from repro.obs import install

        return install(
            self.sim,
            tracing=tracing,
            timeline_interval=timeline_interval,
            slo_rules=slo_rules,
        )


def _machine(server_nodes: int, client_nodes: int, server_name: str,
             engine_spec: Optional[EngineSpec], seed: int) -> _Machine:
    """Dual-engine servers and engine-less clients on one fabric."""
    sim = Simulator()
    fabric = Fabric(sim, FabricSpec())
    server_spec = NodeSpec(engines=2, engine=engine_spec or EngineSpec())
    client_spec = NodeSpec(engines=0)
    servers = [
        ServerNode(fabric, f"{server_name}{i}", server_spec)
        for i in range(server_nodes)
    ]
    clients = [
        ClientNode(fabric, f"client{i}", client_spec)
        for i in range(client_nodes)
    ]
    return _Machine(sim, fabric, servers, clients, RngStreams(seed=seed))


@dataclass
class Cluster(_Machine):
    """A booted system: simulator, fabric, nodes, DAOS, and a pool."""

    daos: DaosSystem
    pool: PoolMap

    def new_client(self, node_index: int = 0, name: str = "") -> DaosClient:
        """A fresh libdaos client context on the given client node."""
        return DaosClient(self.daos, self.clients[node_index], name)

    def inject(self, schedule):
        """Arm a :class:`~repro.faults.FaultSchedule` on this cluster;
        returns the armed :class:`~repro.faults.FaultInjector` (its
        ``trace`` carries the deterministic event record)."""
        from repro.faults.injector import FaultInjector

        return FaultInjector(self, schedule).arm()


def build_cluster(
    server_nodes: int,
    client_nodes: int,
    engine_spec: Optional[EngineSpec] = None,
    capacity_per_target: int = 64 * GiB,
    seed: int = 0xDA05,
) -> Cluster:
    """Assemble and boot a cluster; returns once the pool exists and the
    metadata service has a stable leader."""
    m = _machine(server_nodes, client_nodes, "server", engine_spec, seed)
    daos = DaosSystem(m.sim, m.fabric, m.servers, rng=m.rng)

    def boot():
        pool = yield from daos.create_pool(
            "tank", capacity_per_target=capacity_per_target
        )
        return pool

    task = m.sim.spawn(boot(), "boot")
    pool = m.sim.run_until_complete(task, limit=60.0)
    return Cluster(**vars(m), daos=daos, pool=pool)


@dataclass
class LustreCluster(_Machine):
    """A booted Lustre system on the same hardware model."""

    fs: "object"  # LustreFs

    def mount(self, node_index: int = 0, name: str = ""):
        from repro.lustre.client import LustreMount

        return LustreMount(self.fs, self.clients[node_index], name)


def build_lustre_cluster(
    server_nodes: int,
    client_nodes: int,
    engine_spec: Optional[EngineSpec] = None,
    stripe_count: int = 4,
    seed: int = 0xDA05,
) -> LustreCluster:
    """Assemble a Lustre filesystem over NEXTGenIO-class hardware, for
    the DAOS-vs-parallel-filesystem contrast experiment."""
    from repro.lustre.fs import LustreFs

    m = _machine(server_nodes, client_nodes, "oss", engine_spec, seed)
    fs = LustreFs(m.sim, m.fabric, m.servers, default_stripe_count=stripe_count)
    return LustreCluster(**vars(m), fs=fs)


def build_system(lustre: bool, server_nodes: int, client_nodes: int,
                 seed: int = 0xDA05):
    """The cluster a front-end runs on: the Lustre baseline or DAOS, on
    the same hardware and seed — the one place that choice is made."""
    build = build_lustre_cluster if lustre else build_cluster
    return build(server_nodes=server_nodes, client_nodes=client_nodes,
                 seed=seed)


def nextgenio(client_nodes: int = 4, seed: int = 0xDA05) -> Cluster:
    """The paper's testbed: 8 servers, 2 engines each, Optane media."""
    return build_cluster(
        server_nodes=8,
        client_nodes=client_nodes,
        capacity_per_target=192 * GiB,
        seed=seed,
    )


def small_cluster(
    server_nodes: int = 2,
    client_nodes: int = 2,
    targets_per_engine: int = 2,
    seed: int = 0xDA05,
) -> Cluster:
    """A cheap cluster for unit/integration tests, 4 GiB per target."""
    espec = EngineSpec(targets=targets_per_engine)
    return build_cluster(
        server_nodes=server_nodes,
        client_nodes=client_nodes,
        engine_spec=espec,
        capacity_per_target=4 * GiB,
        seed=seed,
    )
