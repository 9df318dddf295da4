"""The public libdaos surface in one import (``repro.daos.api``).

Applications written against the simulated store should import from
here rather than reaching into the implementation modules — the facade
pins the supported names the way ``daos.h``/``daos_fs.h`` pin the real
client API, so internal reshuffles don't break example or benchmark
code. Only the object handle is a context manager (``close()`` on
``__exit__``)::

    from repro.cluster import small_cluster
    from repro.daos import api as daos

    cluster = small_cluster(server_nodes=2, client_nodes=1)
    client = daos.DaosClient(cluster.daos, cluster.clients[0])

    def scenario():  # a sim task
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("cont0", oclass="SX")
        with cont.open_object((yield from cont.alloc_oid())) as obj:
            eq = daos.EventQueue(cluster.sim, depth=8)  # daos_eq_create
            for i in range(4):  # a non-blocking op is the blocking one, queued
                yield from eq.submit(obj.write(i << 20, b"x" * (1 << 20)))
            daos.reap((yield from eq.drain()))  # re-raises a held error
            return (yield from obj.size())

    assert cluster.run(scenario()) == 4 << 20

A completed event holds its finished task until reaped, so a
long-running submitter reaps as it goes
(``eq.try_reap()`` after each submit, keeping only what it must report).
"""

from __future__ import annotations

from repro.daos.array import DaosArray
from repro.daos.client import ContainerHandle, DaosClient, PoolHandle
from repro.daos.eq import (
    EV_ABORTED,
    EV_COMPLETED,
    EV_READY,
    EV_RUNNING,
    Event,
    EventQueue,
    Inline,
    reap,
)
from repro.daos.kv import DaosKV
from repro.daos.objid import ObjId
from repro.daos.object import ObjectHandle
from repro.daos.oclass import (
    EC_2P1G1,
    EC_2P1GX,
    EC_4P1G1,
    RP_2G1,
    RP_2GX,
    RP_3G1,
    S1,
    S2,
    SX,
    ObjectClass,
    oclass_by_name,
)
from repro.daos.system import DaosSystem, PoolMap
from repro.daos.vos.payload import PatternPayload, Payload, as_payload
from repro.errors import (
    DaosError,
    DerBusy,
    DerCanceled,
    DerDataLoss,
    DerExist,
    DerInval,
    DerIsDir,
    DerNoPerm,
    DerNoSpace,
    DerNonexist,
    DerNotDir,
    DerStale,
    DerTimedOut,
)

__all__ = [
    # system + handles
    "DaosSystem",
    "PoolMap",
    "DaosClient",
    "PoolHandle",
    "ContainerHandle",
    "ObjectHandle",
    "DaosArray",
    "DaosKV",
    # async event model
    "EventQueue",
    "Inline",
    "Event",
    "reap",
    "EV_READY",
    "EV_RUNNING",
    "EV_COMPLETED",
    "EV_ABORTED",
    # identifiers and classes
    "ObjId",
    "ObjectClass",
    "oclass_by_name",
    "S1",
    "S2",
    "SX",
    "RP_2G1",
    "RP_2GX",
    "RP_3G1",
    "EC_2P1G1",
    "EC_2P1GX",
    "EC_4P1G1",
    # payloads
    "Payload",
    "PatternPayload",
    "as_payload",
    # typed errors
    "DaosError",
    "DerBusy",
    "DerCanceled",
    "DerDataLoss",
    "DerExist",
    "DerInval",
    "DerIsDir",
    "DerNonexist",
    "DerNoPerm",
    "DerNoSpace",
    "DerNotDir",
    "DerStale",
    "DerTimedOut",
]
