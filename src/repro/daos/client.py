"""``libdaos``: the client library — pool/container handles and OID allocation.

One :class:`DaosClient` per application process. Control-plane operations
(pool connect, container create/open, OID range allocation) go through
the Raft-backed metadata service; data-plane operations go through
:class:`~repro.daos.object.ObjectHandle`.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.daos.objid import ObjId
from repro.daos.object import ObjectHandle
from repro.daos.oclass import ObjectClass, oclass_by_name
from repro.daos.placement import PlacementMap
from repro.daos.system import DaosSystem, PoolMap
from repro.errors import DerExist, DerNonexist
from repro.hardware.node import ClientNode
from repro.network.ofi import Rpc
from repro.units import MiB

#: OID ranges are leased in batches, like the real DAOS OID allocator
OID_BATCH = 1 << 10


class DaosClient:
    """Per-process client context (RPC, metadata session)."""

    def __init__(self, system: DaosSystem, node: ClientNode, name: str = ""):
        self.system = system
        self.sim = system.sim
        self.fabric = system.fabric
        self.node = node
        self.name = name or f"daosc:{node.name}:{next(system.client_seq)}"
        self.rpc = Rpc(self.fabric, node.addr, self.name)
        self.rsvc = system.rsvc_client()

    def connect_pool(self, label: str) -> Generator:
        """Task helper: resolve and connect to a pool by label."""
        pool_map = yield from self.system.resolve_pool(label, self.rsvc)
        return PoolHandle(self, pool_map)


class PoolHandle:
    """A connected pool: pool map + placement."""

    def __init__(self, client: DaosClient, pool_map: PoolMap):
        self.client = client
        self.pool_map = pool_map
        self.placement = PlacementMap(pool_map.n_targets)

    def create_container(
        self,
        label: str,
        oclass: str = "SX",
        chunk_size: int = MiB,
    ) -> Generator:
        """Task helper: create a container (fails if the label exists)."""
        oclass_by_name(oclass)  # validate early
        rsvc = self.client.rsvc
        uuid = self.client.system._new_uuid("cont")
        key = f"cont-label:{self.pool_map.uuid}:{label}"
        created = yield from rsvc.invoke(("cas", key, None, uuid))
        if not created:
            raise DerExist(f"container label {label!r}")
        props = {"label": label, "oclass": oclass, "chunk_size": chunk_size}
        yield from rsvc.invoke(
            ("put", f"cont:{self.pool_map.uuid}:{uuid}", props)
        )
        # Create the shard on every engine (broadcast, fanned out in turn).
        for engine in self.client.system.engines:
            yield from self.client.rpc.call(
                engine.server,
                "cont_create",
                {"pool": self.pool_map.uuid, "cont": uuid},
            )
        return ContainerHandle(self, uuid, props)

    def open_container(self, label: str) -> Generator:
        """Task helper: open an existing container by label."""
        rsvc = self.client.rsvc
        key = f"cont-label:{self.pool_map.uuid}:{label}"
        uuid = yield from rsvc.invoke(("get", key))
        if uuid is None:
            raise DerNonexist(f"container label {label!r}")
        props = yield from rsvc.invoke(
            ("get", f"cont:{self.pool_map.uuid}:{uuid}")
        )
        return ContainerHandle(self, uuid, props)

    def refresh_map(self) -> Generator:
        """Task helper: re-read the pool map (picks up exclusions)."""
        pool_map = yield from self.client.system.resolve_pool(
            self.pool_map.label, self.client.rsvc
        )
        self.pool_map = pool_map
        return pool_map


class ContainerHandle:
    """An open container: properties, OID allocation, object handles."""

    def __init__(self, pool: PoolHandle, uuid: str, props: Dict):
        self.pool = pool
        self.client = pool.client
        self.uuid = uuid
        self.props = props
        self._oid_next = 0
        self._oid_limit = 0

    @property
    def default_oclass(self) -> ObjectClass:
        return oclass_by_name(self.props.get("oclass", "SX"))

    @property
    def chunk_size(self) -> int:
        return int(self.props.get("chunk_size", MiB))

    def alloc_oid(self, oclass: Optional[ObjectClass] = None) -> Generator:
        """Task helper: allocate a unique OID with the given class."""
        if self._oid_next >= self._oid_limit:
            top = yield from self.client.rsvc.invoke(
                ("inc", f"oidnext:{self.uuid}", OID_BATCH)
            )
            self._oid_limit = top
            self._oid_next = top - OID_BATCH
        lo = self._oid_next
        self._oid_next += 1
        return ObjId.generate(oclass or self.default_oclass, lo=lo)

    def open_object(self, oid: ObjId) -> ObjectHandle:
        """Open an object handle (purely client-side, like daos_obj_open)."""
        return ObjectHandle(self, oid)
