"""A running DAOS system: engines + the Raft-backed management service.

``DaosSystem`` wires the hardware model to the software stack:

- one :class:`~repro.daos.engine.Engine` per engine slot of every server
  node, each with a global engine rank and a global-target-id range;
- a :class:`~repro.consensus.raft.RaftCluster` over a
  :class:`~repro.consensus.state_machine.KvStateMachine` (Raft over the
  simulated fabric) holding pool and container metadata — pool maps,
  container properties, OID allocator counters — the equivalent of the
  DAOS pool/container service replicas;
- pool lifecycle: :meth:`create_pool` creates per-target VOS shards on
  every engine and publishes the pool map through Raft.

Global target ids: engine ``e``'s local target ``t`` has
``tid = e * targets_per_engine + t``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from repro.consensus.raft import RaftCluster
from repro.consensus.rsvc import RsvcClient
from repro.consensus.state_machine import KvStateMachine
from repro.daos.engine import Engine
from repro.daos.vos.container import EpochClock
from repro.errors import DerExist, DerInval, DerNonexist
from repro.hardware.node import ServerNode, StorageTarget
from repro.network.fabric import Fabric
from repro.rebuild.state import DOWN, DOWNOUT, REBUILDING, UP, TargetStatus
from repro.sim.core import Simulator
from repro.sim.rng import RngStreams
from repro.units import GiB


@dataclass
class TargetRef:
    """Resolution of a global target id."""

    tid: int
    engine: Engine
    local_tid: int
    hw: StorageTarget = field(init=False)

    def __post_init__(self) -> None:
        self.hw = self.engine.slot.targets[self.local_tid]


@dataclass
class PoolMap:
    """Client-visible pool composition (a simplified DAOS pool map).

    ``statuses`` holds a :class:`~repro.rebuild.state.TargetStatus` for
    every target that is not healthy-UP; the derived frozensets are
    recomputed by :meth:`derive` whenever the statuses change so that the
    hot I/O paths pay set lookups, not state-machine logic.
    """

    uuid: str
    label: str
    n_targets: int
    capacity_per_target: int
    version: int = 1
    #: per-target state records; absent tid == UP
    statuses: Dict[int, TargetStatus] = field(default_factory=dict)
    #: derived: targets that may not serve *reads* (anything non-UP —
    #: REBUILDING targets accept writes but their data is incomplete)
    excluded: frozenset = field(init=False, default=frozenset())
    #: derived: permanently evicted targets (spare substitution applies)
    downout: frozenset = field(init=False, default=frozenset())
    #: derived: every DOWNOUT shard has been rebuilt onto its spare, so
    #: substituted slots are readable again
    downout_ready: bool = field(init=False, default=True)

    def derive(self) -> "PoolMap":
        statuses = self.statuses
        self.excluded = frozenset(
            t for t, s in statuses.items() if s.state != UP
        )
        self.downout = frozenset(
            t for t, s in statuses.items() if s.state == DOWNOUT
        )
        self.downout_ready = all(
            s.rebuilt for s in statuses.values() if s.state == DOWNOUT
        )
        return self

    def state_of(self, tid: int) -> str:
        status = self.statuses.get(tid)
        return UP if status is None else status.state

    # ------------------------------------------------- raft serialization
    def to_record(self) -> Dict:
        return {
            "label": self.label,
            "n_targets": self.n_targets,
            "capacity_per_target": self.capacity_per_target,
            "version": self.version,
            "targets": {t: s.to_record() for t, s in self.statuses.items()},
        }

    @classmethod
    def from_record(cls, uuid: str, record: Dict) -> "PoolMap":
        statuses = {
            int(t): TargetStatus.from_record(s)
            for t, s in record.get("targets", {}).items()
        }
        return cls(
            uuid=uuid,
            label=record["label"],
            n_targets=record["n_targets"],
            capacity_per_target=record["capacity_per_target"],
            version=record["version"],
            statuses=statuses,
        ).derive()


#: Raft replicas of the pool/container metadata service
SVC_REPLICAS = 3


class DaosSystem:
    """Engines + management service over a set of server nodes."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        server_nodes: List[ServerNode],
        rng: Optional[RngStreams] = None,
    ):
        if not server_nodes:
            raise DerInval("DAOS system needs server nodes")
        self.sim = sim
        self.fabric = fabric
        self.rng = rng or RngStreams()
        self.server_nodes = server_nodes
        #: system-global epoch source shared by every VOS shard (see
        #: :class:`~repro.daos.vos.container.EpochClock`) — exclusion
        #: watermarks are epochs read from this clock.
        self.epoch_clock = EpochClock()
        self.engines: List[Engine] = []
        for node in server_nodes:
            for slot in node.engines:
                self.engines.append(
                    Engine(sim, fabric, slot, len(self.engines),
                           clock=self.epoch_clock)
                )
        self.targets_per_engine = self.engines[0].spec.targets
        self.targets: List[TargetRef] = []
        for engine in self.engines:
            for local_tid in range(engine.spec.targets):
                self.targets.append(
                    TargetRef(len(self.targets), engine, local_tid)
                )
        n_svc = min(SVC_REPLICAS, len(server_nodes))
        self.svc = RaftCluster(
            sim,
            fabric,
            [node.addr for node in server_nodes[:n_svc]],
            KvStateMachine,
            rng=self.rng,
        )
        self._uuid_seq = itertools.count(1)
        #: number this system's client contexts (``daosc:<node>:<n>``)
        #: and the containers front-ends label (``ior-<nnnn>``)
        self.client_seq = itertools.count(1)
        self.label_seq = itertools.count(1)
        self._pool_maps: Dict[str, PoolMap] = {}
        # deferred import: repro.rebuild imports daos sub-layers
        from repro.rebuild.scheduler import RebuildManager

        #: the online rebuild/resync engine (runs on the pool service)
        self.rebuild = RebuildManager(self)

    # ------------------------------------------------------------- helpers
    @property
    def n_targets(self) -> int:
        return len(self.targets)

    def target(self, tid: int) -> TargetRef:
        try:
            return self.targets[tid]
        except IndexError:
            raise DerNonexist(f"target {tid}") from None

    def rsvc_client(self) -> RsvcClient:
        return RsvcClient(self.svc)

    def _new_uuid(self, kind: str) -> str:
        return f"{kind}-{next(self._uuid_seq):08x}"

    # ------------------------------------------------------------- pool lifecycle
    def create_pool(
        self,
        label: str,
        capacity_per_target: int = 64 * GiB,
    ) -> Generator:
        """Task helper: create a pool across every engine; returns its
        :class:`PoolMap`."""
        rsvc = self.rsvc_client()
        uuid = self._new_uuid("pool")
        created = yield from rsvc.invoke(
            ("cas", f"pool-label:{label}", None, uuid)
        )
        if not created:
            raise DerExist(f"pool label {label!r}")
        for engine in self.engines:
            engine.create_pool_shards(uuid, capacity_per_target)
        pool_map = PoolMap(
            uuid=uuid,
            label=label,
            n_targets=self.n_targets,
            capacity_per_target=capacity_per_target,
        ).derive()
        yield from rsvc.invoke(("put", f"pool:{uuid}", pool_map.to_record()))
        self._pool_maps[uuid] = pool_map
        self._push_map_version(uuid, pool_map.version)
        return pool_map

    def resolve_pool(self, label: str, rsvc: RsvcClient) -> Generator:
        """Task helper: label → :class:`PoolMap` via the metadata service."""
        uuid = yield from rsvc.invoke(("get", f"pool-label:{label}"))
        if uuid is None:
            raise DerNonexist(f"pool label {label!r}")
        record = yield from rsvc.invoke(("get", f"pool:{uuid}"))
        return PoolMap.from_record(uuid, record)

    # ------------------------------------------------------------- target state
    def _push_map_version(self, pool_uuid: str, version: int) -> None:
        """Tell every engine the committed map version (the IV/notification
        fan-out of the real pool service; delivery is modelled as free —
        fencing correctness only needs it to happen before the transition
        task completes)."""
        for engine in self.engines:
            engine.map_versions[pool_uuid] = version

    def _load_map(self, pool_uuid: str, rsvc) -> Generator:
        record = yield from rsvc.invoke(("get", f"pool:{pool_uuid}"))
        if record is None:
            raise DerNonexist(f"pool {pool_uuid}")
        return PoolMap.from_record(pool_uuid, record)

    def _publish_map(self, pool_map: PoolMap, rsvc) -> Generator:
        pool_map.derive()
        yield from rsvc.invoke(
            ("put", f"pool:{pool_map.uuid}", pool_map.to_record())
        )
        self._pool_maps[pool_map.uuid] = pool_map
        self._push_map_version(pool_map.uuid, pool_map.version)
        return pool_map.version

    def exclude_target(self, pool_uuid: str, tid: int,
                       permanent: bool = False) -> Generator:
        """Task helper: mark a target DOWN (or DOWNOUT when ``permanent``).

        Records the current global epoch as the exclusion watermark —
        every write the target misses carries a newer epoch, so a later
        reintegration resyncs exactly the exclusion window. A permanent
        exclusion immediately queues a rebuild that restores redundancy
        onto the target's deterministic spare.
        """
        rsvc = self.rsvc_client()
        pool_map = yield from self._load_map(pool_uuid, rsvc)
        state = DOWNOUT if permanent else DOWN
        current = pool_map.statuses.get(tid)
        if current is not None and current.state == state:
            return pool_map.version
        version = pool_map.version + 1
        if current is None:
            status = TargetStatus(state=state, version=version,
                                  watermark=self.epoch_clock.current)
        else:
            # DOWN -> DOWNOUT or REBUILDING -> DOWN/DOWNOUT; keep the
            # original watermark (the earliest epoch the target may miss)
            status = current.advance(state, version)
        if current is not None and current.state == REBUILDING:
            self.rebuild.cancel(pool_uuid, tid)
        pool_map.statuses[tid] = status
        pool_map.version = version
        yield from self._publish_map(pool_map, rsvc)
        if permanent:
            self.rebuild.schedule_restore(pool_uuid, tid)
        return version

    def reintegrate_target(self, pool_uuid: str, tid: int) -> Generator:
        """Task helper: bring a DOWN target back through REBUILDING.

        The target immediately starts receiving new writes (so the resync
        has a bounded window to catch up) but serves no reads until the
        background resync — scheduled here, driven by
        :class:`~repro.rebuild.scheduler.RebuildManager` — has replayed
        everything written since the exclusion watermark, at which point
        the pool map flips the target UP. Use :meth:`wait_rebuild` to
        block until the pool is healthy again.
        """
        rsvc = self.rsvc_client()
        pool_map = yield from self._load_map(pool_uuid, rsvc)
        current = pool_map.statuses.get(tid)
        if current is None or current.state == REBUILDING:
            return pool_map.version
        if current.state == DOWNOUT:
            raise DerInval(f"target {tid} is permanently excluded (DOWNOUT)")
        version = pool_map.version + 1
        pool_map.statuses[tid] = current.advance(REBUILDING, version)
        pool_map.version = version
        yield from self._publish_map(pool_map, rsvc)
        self.rebuild.schedule_resync(pool_uuid, tid, current.watermark)
        return version

    def mark_target_up(self, pool_uuid: str, tid: int, rsvc=None) -> Generator:
        """Task helper (rebuild completion): REBUILDING → UP.

        Returns the new map version, or None when the target is no longer
        REBUILDING (it failed again mid-resync and the job was cancelled).
        """
        rsvc = rsvc or self.rsvc_client()
        pool_map = yield from self._load_map(pool_uuid, rsvc)
        current = pool_map.statuses.get(tid)
        if current is None or current.state != REBUILDING:
            return None
        pool_map.statuses.pop(tid)
        pool_map.version += 1
        yield from self._publish_map(pool_map, rsvc)
        return pool_map.version

    def mark_downout_rebuilt(self, pool_uuid: str, tid: int, rsvc) -> Generator:
        """Task helper (rebuild completion): flag a DOWNOUT target's shard
        as fully reconstructed on its spare (substituted slots become
        readable)."""
        pool_map = yield from self._load_map(pool_uuid, rsvc)
        current = pool_map.statuses.get(tid)
        if current is None or current.state != DOWNOUT or current.rebuilt:
            return None
        pool_map.version += 1
        pool_map.statuses[tid] = TargetStatus(
            state=DOWNOUT, version=pool_map.version,
            watermark=current.watermark, rebuilt=True,
        )
        yield from self._publish_map(pool_map, rsvc)
        return pool_map.version

    # ------------------------------------------------------------- queries
    def pool_query(self, pool_uuid: str) -> Dict:
        """Pool health snapshot: map version, per-target states, rebuild
        progress (``dmg pool query`` equivalent; reads the service-side
        cached map, no RPC charged)."""
        pool_map = self._pool_maps.get(pool_uuid)
        if pool_map is None:
            raise DerNonexist(f"pool {pool_uuid}")
        return {
            "uuid": pool_uuid,
            "label": pool_map.label,
            "version": pool_map.version,
            "n_targets": pool_map.n_targets,
            "up_targets": pool_map.n_targets - len(pool_map.excluded),
            "targets": {
                tid: status.to_record()
                for tid, status in sorted(pool_map.statuses.items())
            },
            "rebuild": self.rebuild.progress(pool_uuid),
        }

    def wait_rebuild(self, pool_uuid: str) -> Generator:
        """Task helper: block until no rebuild job is queued or running
        for the pool; returns the pool_query() snapshot."""
        yield from self.rebuild.wait(pool_uuid)
        return self.pool_query(pool_uuid)
