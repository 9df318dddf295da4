"""The DAOS I/O engine: RPC service, targets, and timing.

One engine runs per socket (two per NEXTGenIO server). It exposes the
metadata/object RPCs used by the KV paths (directory entries, inode
records, enumeration — the operations an mdtest-style workload storms),
applies them to the per-target VOS shards, and charges:

- fixed per-RPC CPU (``EngineSpec.per_rpc_cpu``),
- a per-target inflight-credit semaphore (xstream ULT concurrency),
- media access latency for the persistent-memory commit.

Bulk array I/O does *not* flow through these RPC handlers: the client's
:class:`~repro.daos.stream.IoStream` charges wire/media time through the
fluid-flow network and applies extents to the same VOS shards directly
(see DESIGN.md §3); the engine provides the shard-resolution and
first-writer tree-creation accounting used by that path.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Callable, Dict, Set, Tuple

from repro.daos.vos.container import EpochClock, VosContainer
from repro.daos.vos.pool import VosPool
from repro.errors import DerNonexist, DerStale, DerTimedOut
from repro.hardware.node import EngineSlot
from repro.network.fabric import Fabric
from repro.network.ofi import Reply, RpcServer
from repro.sim.core import Simulator
from repro.sim.sync import Semaphore


class Engine:
    """One DAOS engine bound to an :class:`EngineSlot`."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        slot: EngineSlot,
        engine_rank: int,
        clock: "EpochClock" = None,
    ):
        self.sim = sim
        self.slot = slot
        self.spec = slot.spec
        self.rank = engine_rank
        self.name = f"engine:{engine_rank}"
        self.server = RpcServer(fabric, slot.node.addr, self.name)
        #: event counts (rpcs, tree_creates, tree_warms, crashes, restarts)
        self.stats: Counter = Counter()
        #: shared system epoch clock (None → shards use private clocks)
        self.clock = clock
        #: pool shards: pool_uuid -> local target index -> VosPool
        self.pools: Dict[str, Dict[int, VosPool]] = {}
        #: last committed pool-map version this engine knows of (pushed by
        #: the pool service); mutating I/O from clients holding an older
        #: map is fenced with DER_STALE
        self.map_versions: Dict[str, int] = {}
        self._credits: Dict[int, Semaphore] = {
            t: Semaphore(sim, self.spec.target_inflight)
            for t in range(self.spec.targets)
        }
        #: (pool, cont, oid, local_tid) pairs whose VOS trees exist — the
        #: first array write to a pair pays tree creation.
        self._trees_created: Set[Tuple] = set()
        self._trees_warmed: Set[Tuple] = set()
        self.up = True
        #: injected slow-media penalty added to every media access
        #: (fault injection: worn/thermally-throttled Optane module)
        self.media_latency_extra = 0.0

        register = self.server.register
        register("cont_create", self._h_cont_create)
        register("kv_update", self._h_kv_update)
        register("kv_fetch", self._h_kv_fetch)
        register("list_dkeys", self._h_list_dkeys)
        register("punch_dkey", self._h_punch_dkey)
        register("punch_object", self._h_punch_object)
        register("array_sizes", self._h_array_sizes)
        register("array_punch", self._h_array_punch)

    # ------------------------------------------------------------- shards
    def create_pool_shards(self, pool_uuid: str, capacity_per_target: int) -> None:
        if pool_uuid in self.pools:
            return
        self.pools[pool_uuid] = {
            t: VosPool(pool_uuid, capacity_per_target, clock=self.clock)
            for t in range(self.spec.targets)
        }

    def shard(self, pool_uuid: str, local_tid: int) -> VosPool:
        try:
            return self.pools[pool_uuid][local_tid]
        except KeyError:
            raise DerNonexist(
                f"pool {pool_uuid} target {local_tid} on {self.name}"
            ) from None

    def container_shard(
        self, pool_uuid: str, local_tid: int, cont_uuid: str
    ) -> VosContainer:
        return self.shard(pool_uuid, local_tid).open_container(cont_uuid)

    # ------------------------------------------------------------- stream support
    def tree_create_cost(
        self, pool: str, cont: str, oid, local_tid: int, write: bool
    ) -> float:
        """First-writer (or first-reader) cost for an object's VOS tree on
        a target; 0 afterwards. Called by the client I/O stream."""
        key = (pool, cont, oid, local_tid)
        if write:
            if key in self._trees_created:
                return 0.0
            self._trees_created.add(key)
            self._trees_warmed.add(key)
            self.stats["tree_creates"] += 1
            return self.spec.shard_first_write_cost
        if key in self._trees_warmed:
            return 0.0
        self._trees_warmed.add(key)
        self.stats["tree_warms"] += 1
        return self.spec.shard_first_read_cost

    # ------------------------------------------------------------- map fencing
    def check_map_version(self, pool_uuid: str, client_version) -> None:
        """Fence a mutating op against the client's pool-map version.

        A writer holding an older map than this engine could route around
        a target that has since started REBUILDING (losing its write from
        the resync window) or into one that has since been evicted, so
        the op is rejected with DER_STALE and the client refreshes its
        map and retries — the libdaos stale-map dance. ``None`` means the
        caller predates the protocol (rebuild-internal traffic); it is
        let through.
        """
        if client_version is None:
            return
        known = self.map_versions.get(pool_uuid, 1)
        if client_version < known:
            raise DerStale(
                f"pool {pool_uuid}: client map v{client_version} "
                f"< engine map v{known}"
            )

    # ------------------------------------------------------------- failure injection
    def crash(self) -> None:
        """Take the engine down: every RPC is answered with DER_TIMEDOUT
        (standing in for the caller's RPC timeout). VOS shards live in
        persistent memory and survive, exactly like a real engine crash;
        data-plane unavailability is modelled by pool-map target exclusion
        (see DESIGN.md §10.2)."""
        if not self.up:
            return
        self.up = False
        self.stats["crashes"] += 1
        self.server.set_unavailable(
            lambda: DerTimedOut(f"{self.name} is down")
        )

    def restart(self) -> None:
        """Bring a crashed engine back; persistent state is intact."""
        if self.up:
            return
        self.up = True
        self.stats["restarts"] += 1
        self.server.set_unavailable(None)

    # ------------------------------------------------------------- RPC timing
    def _service(self, reply: Reply, vos_call: Callable, args: tuple,
                 pool: str, cont: str, local_tid: int, map_version=None,
                 media_ops: int = 1, media_bytes: int = 0,
                 read: bool = False) -> None:
        """The callback sequence every shard RPC shares: fence, take a
        credit (or park on its FIFO) and charge CPU + media latency
        (:meth:`_granted`), then release it and reply with
        ``vos_call(container shard, *args)`` (:meth:`_served`).

        ``map_version`` is a mutating op's client map version (fenced
        by :meth:`check_map_version` before any time is charged; reads
        pass none). ``media_bytes`` adds an inline value-streaming
        charge at the target's media bandwidth (write by default, read
        bandwidth when ``read``) under the same ULT credit — the timing
        model for KV values large enough that moving the bytes dominates
        the fixed per-record cost.
        """
        self.check_map_version(pool, map_version)
        tracer = self.sim.tracer
        wait_span = None if tracer is None else tracer.open(
            "engine.credit_wait", "engine", self.slot.node.name,
            reply.span.span_id, {"tid": local_tid})
        streaming = media_bytes and media_bytes / (
            self.spec.target_read_bw if read else self.spec.target_write_bw)
        job = (reply, vos_call, args, pool, cont, local_tid, media_ops,
               streaming, self.sim.now, wait_span)
        if self._credits[local_tid].take():
            self._granted(*job, None)
        else:
            self._credits[local_tid].park(partial(self._granted, *job))

    def _granted(self, reply: Reply, vos_call: Callable, args: tuple,
                 pool: str, cont: str, local_tid: int, media_ops: int,
                 streaming: float, started: float, wait_span,
                 _woken) -> None:
        """A credit is held (``_woken`` is a parked wait's wake-up
        value): charge the cost, then :meth:`_served`."""
        sim = self.sim
        span = None
        if sim.tracer is not None:
            sim.tracer.end(wait_span)
            span = sim.tracer.open(
                "engine.service", "engine", self.slot.node.name,
                reply.span.span_id, {"tid": local_tid, "media_ops": media_ops})
        if sim.metrics is not None:
            self._meter_inflight(local_tid)  # ULT credits in use right now
            sim.metrics.incr(f"engine.rpcs{{rank={self.rank}}}")
        self.stats["rpcs"] += 1
        cost = self.spec.per_rpc_cpu + media_ops * (
            self.spec.module.access_latency + self.media_latency_extra
        )
        if streaming:
            cost += streaming
        sim.schedule(cost, self._served, reply, vos_call, args, pool, cont,
                     local_tid, started, span)

    def _served(self, reply: Reply, vos_call: Callable, args: tuple,
                pool: str, cont: str, local_tid: int, started: float,
                span) -> None:
        """The cost has elapsed: release the credit, then reply with what
        the VOS call returns (or raises)."""
        sim = self.sim
        self._credits[local_tid].release()
        if sim.tracer is not None:
            sim.tracer.end(span)
        if sim.metrics is not None:
            self._meter_inflight(local_tid)
            sim.metrics.observe(f"engine.service.latency{{rank={self.rank}}}",
                                sim.now - started)
        try:
            value = vos_call(self.container_shard(pool, local_tid, cont),
                             *args)
        except Exception as exc:  # noqa: BLE001 - shipped to caller
            value = exc
        reply(value)

    def _meter_inflight(self, local_tid: int) -> None:
        self.sim.metrics.set_gauge(
            f"engine.target.inflight{{rank={self.rank},target={local_tid}}}",
            self.spec.target_inflight - self._credits[local_tid].available,
        )

    # ------------------------------------------------------------- handlers
    def _h_cont_create(self, _src, reply: Reply, pool: str, cont: str) -> None:
        for local_tid, shard in self.pools.get(pool, {}).items():
            if cont not in shard.containers:
                shard.create_container(cont)
        self.sim.schedule(self.spec.per_rpc_cpu, reply, True)

    def _h_kv_update(self, _src, reply: Reply, pool: str, cont: str,
                     local_tid: int, oid, dkey, akey, value,
                     map_version=None, nbytes: int = 0) -> None:
        self._service(reply, VosContainer.update_single,
                      (oid, dkey, akey, value), pool, cont, local_tid,
                      map_version, media_ops=2, media_bytes=nbytes)

    def _h_kv_fetch(self, _src, reply: Reply, pool: str, cont: str,
                    local_tid: int, oid, dkey, akey, nbytes: int = 0) -> None:
        self._service(reply, VosContainer.fetch_single, (oid, dkey, akey),
                      pool, cont, local_tid, media_bytes=nbytes, read=True)

    def _h_list_dkeys(self, _src, reply: Reply, pool: str, cont: str,
                      local_tid: int, oid, lo=None, hi=None,
                      limit: int = 1024) -> None:
        self._service(reply, VosContainer.list_dkeys, (oid, lo, hi, limit),
                      pool, cont, local_tid)

    def _h_punch_dkey(self, _src, reply: Reply, pool: str, cont: str,
                      local_tid: int, oid, dkey, map_version=None) -> None:
        self._service(reply, VosContainer.punch_dkey, (oid, dkey),
                      pool, cont, local_tid, map_version, media_ops=2)

    def _h_punch_object(self, _src, reply: Reply, pool: str, cont: str,
                        local_tid: int, oid, map_version=None) -> None:
        self._service(reply, VosContainer.punch_object, (oid,),
                      pool, cont, local_tid, map_version, media_ops=2)

    def _h_array_sizes(self, _src, reply: Reply, pool: str, cont: str,
                       local_tid: int, oid, akey) -> None:
        self._service(reply, VosContainer.dkey_array_sizes, (oid, akey),
                      pool, cont, local_tid)

    def _h_array_punch(self, _src, reply: Reply, pool: str, cont: str,
                       local_tid: int, oid, dkey, akey, offset: int,
                       length: int, map_version=None) -> None:
        self._service(reply, VosContainer.punch_array,
                      (oid, dkey, akey, offset, length),
                      pool, cont, local_tid, map_version, media_ops=2)
