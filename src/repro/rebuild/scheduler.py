"""The rebuild scheduler: scan surviving shards, migrate, converge.

One :class:`RebuildManager` serves a :class:`~repro.daos.system.DaosSystem`.
Pool-map transitions queue :class:`RebuildJob`\\ s (resync after a
reintegration, restore after a permanent exclusion); a single per-pool
runner task executes them FIFO, so concurrent failures rebuild in a
deterministic order.

A job runs the DAOS scan/pull protocol in converge-loop form:

1. **scan** — walk every engine's VOS shard inventory for the pool,
   compute each object's layout algorithmically, and collect the items
   the destination target is missing: everything newer than the job's
   epoch watermark that the destination does not already hold (the
   dest-side filter makes rounds shrink even under sustained foreground
   writes).
2. **migrate** — replay the items onto the destination shard at their
   *original* epochs through one fluid flow spanning the source media /
   NIC links and the destination's media and target links, capped by the
   :class:`~repro.rebuild.throttle.RebuildThrottle` so foreground I/O
   keeps the remaining bandwidth.
3. repeat with the watermark advanced to the epoch observed at the start
   of the round; an empty scan means the destination has converged and
   the pool map flips it UP (or flags the DOWNOUT shard rebuilt).

Replicated groups copy whole extents from any UP survivor; EC groups
reconstruct the missing cell (or parity) per dkey by XOR over the
survivors, exactly mirroring the degraded-read math in
``repro.daos.object``.

Deviations from real DAOS (see DESIGN.md §9): the scanner reads
surviving VOS shards directly instead of issuing enumeration RPCs (so a
rebuild can never deadlock against a crashed engine's RPC queue — the
shards live in persistent memory), and its CPU cost is charged as an
aggregate per-round delay rather than per-RPC.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Dict, Generator, Iterator, List, Optional, Tuple

from repro.daos.placement import PlacementMap, effective_groups
from repro.daos.vos.container import SingleValue, VosContainer, _value_footprint
from repro.daos.vos.extent import ExtentTree
from repro.daos.vos.payload import Payload, XorPayload, ZeroPayload, concat_payloads
from repro.rebuild.state import DOWNOUT, UP
from repro.rebuild.throttle import RebuildThrottle


@dataclass
class _Item:
    """One unit of migration: a KV record or an extent bound for a shard."""

    cont: str
    oid: object
    dkey: object
    akey: object
    kind: str  # "single" | "extent"
    dest: int  # destination global target id
    src: int  # source global target id (flow accounting)
    epoch: int
    nbytes: int
    offset: int = 0
    payload: Optional[Payload] = None
    value: object = None


@dataclass
class RebuildJob:
    """One queued/running rebuild operation for a pool."""

    kind: str  # "resync" | "restore"
    pool_uuid: str
    tid: int
    watermark: int = 0
    status: str = "pending"  # pending|scanning|migrating|done|failed|cancelled
    cancelled: bool = False
    rounds: int = 0
    objects_total: int = 0
    objects_done: int = 0
    items_total: int = 0
    items_done: int = 0
    bytes_total: int = 0
    bytes_moved: int = 0
    started: Optional[float] = None
    finished: Optional[float] = None
    map_version: Optional[int] = None
    error: Optional[str] = None

    @property
    def active(self) -> bool:
        return self.status in ("pending", "scanning", "migrating")

    def to_record(self) -> Dict:
        return {
            "kind": self.kind,
            "tid": self.tid,
            "status": self.status,
            "rounds": self.rounds,
            "objects": [self.objects_done, self.objects_total],
            "bytes_moved": self.bytes_moved,
        }


class RebuildManager:
    """Schedules and executes rebuild jobs for every pool of a system."""

    #: safety valve on the converge loop; with map-version fencing every
    #: post-REBUILDING write also lands on the destination, so rounds
    #: strictly shrink and real convergence takes 2-3 rounds
    MAX_ROUNDS = 32

    def __init__(self, system):
        self.system = system
        self.sim = system.sim
        self.throttle = RebuildThrottle()
        self.jobs: List[RebuildJob] = []
        self._queues: Dict[str, deque] = defaultdict(deque)
        self._runners: Dict[str, object] = {}  # pool_uuid -> runner Task

    # ------------------------------------------------------------- scheduling
    def schedule_resync(self, pool_uuid: str, tid: int, watermark: int) -> RebuildJob:
        """Queue a resync of everything target ``tid`` missed while DOWN."""
        return self._enqueue(
            RebuildJob("resync", pool_uuid, tid, watermark=watermark)
        )

    def schedule_restore(self, pool_uuid: str, tid: int) -> RebuildJob:
        """Queue a full redundancy restore after a permanent exclusion."""
        return self._enqueue(RebuildJob("restore", pool_uuid, tid))

    def _enqueue(self, job: RebuildJob) -> RebuildJob:
        self.jobs.append(job)
        self._queues[job.pool_uuid].append(job)
        if job.pool_uuid not in self._runners:
            self._runners[job.pool_uuid] = self.sim.spawn(
                self._pool_runner(job.pool_uuid), f"rebuild:{job.pool_uuid}"
            )
        return job

    def cancel(self, pool_uuid: str, tid: int) -> None:
        """Abort the active/queued jobs for a target that failed again."""
        for job in self.jobs:
            if job.pool_uuid == pool_uuid and job.tid == tid and job.active:
                job.cancelled = True

    # ------------------------------------------------------------- queries
    def busy(self, pool_uuid: str) -> bool:
        return pool_uuid in self._runners

    def progress(self, pool_uuid: str) -> Dict:
        """``dmg pool query``-style rebuild status block."""
        jobs = [j for j in self.jobs if j.pool_uuid == pool_uuid]
        active = [j for j in jobs if j.active]
        if active:
            status = "busy"
        elif jobs:
            status = "done" if all(j.status == "done" for j in jobs) else "idle"
        else:
            status = "idle"
        bytes_total = sum(j.bytes_total for j in jobs)
        bytes_moved = sum(j.bytes_moved for j in jobs)
        return {
            "status": status,
            "jobs_total": len(jobs),
            "jobs_active": len(active),
            "objects_pending": sum(
                j.objects_total - j.objects_done for j in active
            ),
            "bytes_moved": bytes_moved,
            "progress": 1.0 if bytes_total == 0 else bytes_moved / bytes_total,
            "jobs": [j.to_record() for j in jobs],
        }

    def wait(self, pool_uuid: str) -> Generator:
        """Task helper: block until the pool's rebuild queue drains."""
        while True:
            runner = self._runners.get(pool_uuid)
            if runner is None:
                return
            yield runner

    # ------------------------------------------------------------- runner
    def _pool_runner(self, pool_uuid: str) -> Generator:
        queue = self._queues[pool_uuid]
        try:
            while queue:
                job = queue.popleft()
                try:
                    yield from self._run_job(job)
                except Exception as exc:  # noqa: BLE001 - job isolation
                    job.status = "failed"
                    job.error = f"{type(exc).__name__}: {exc}"
                finally:
                    if job.finished is None:
                        job.finished = self.sim.now
        finally:
            self._runners.pop(pool_uuid, None)

    def _run_job(self, job: RebuildJob) -> Generator:
        sim = self.sim
        tracer = sim.tracer
        metrics = sim.metrics
        # Aggregate metrics keep their pre-label names; the labeled
        # variants separate per-pool/per-target rebuild traffic in the
        # timeline (keys pre-sorted: pool < target).
        job_label = f"{{pool={job.pool_uuid},target={job.tid}}}"
        job.started = sim.now
        if job.cancelled:
            job.status = "cancelled"
            return
        after = job.watermark
        while job.rounds < self.MAX_ROUNDS:
            job.status = "scanning"
            # Epoch stamp *before* the scan: anything written concurrently
            # with this round carries a newer epoch and is picked up (or
            # confirmed already present) by the next round.
            scan_stamp = self.system.epoch_clock.current
            span = (
                tracer.begin(
                    "rebuild.scan", "rebuild",
                    attrs={"tid": job.tid, "round": job.rounds},
                )
                if tracer is not None
                else None
            )
            items, n_objects = self._scan(job, after)
            yield self._scan_cost(n_objects)
            if tracer is not None:
                tracer.end(span, items=len(items))
            job.rounds += 1
            if not items or job.cancelled:
                break
            job.objects_total += n_objects
            job.items_total += len(items)
            job.bytes_total += sum(i.nbytes for i in items)
            if metrics is not None:
                metrics.set_gauge("rebuild.objects_pending", n_objects)
                metrics.set_gauge(
                    f"rebuild.objects_pending{job_label}", n_objects
                )
            job.status = "migrating"
            yield from self._migrate(job, items)
            after = scan_stamp
        if metrics is not None:
            metrics.set_gauge("rebuild.objects_pending", 0)
            metrics.set_gauge(f"rebuild.objects_pending{job_label}", 0)
        if job.cancelled:
            job.status = "cancelled"
            return
        # Commit the state transition through the pool service. The
        # completion helpers re-check the Raft-backed map, so a cancel
        # that raced past the flag check above still cannot flip a
        # re-failed target UP.
        rsvc = self.system.rsvc_client()
        if job.kind == "resync":
            version = yield from self.system.mark_target_up(
                job.pool_uuid, job.tid, rsvc
            )
        else:
            version = yield from self.system.mark_downout_rebuilt(
                job.pool_uuid, job.tid, rsvc
            )
        job.map_version = version
        job.status = "done" if version is not None else "cancelled"
        job.finished = sim.now
        if metrics is not None:
            metrics.incr("rebuild.jobs_completed")
            metrics.observe("rebuild.job_seconds", job.finished - job.started)
            metrics.incr(f"rebuild.jobs_completed{job_label}")
            metrics.observe(
                f"rebuild.job_seconds{job_label}", job.finished - job.started
            )

    def _scan_cost(self, n_objects: int) -> float:
        """Aggregate CPU charge for one scan round (per-engine inventory
        walk plus per-object layout computation)."""
        spec = self.system.engines[0].spec
        return spec.per_rpc_cpu * (len(self.system.engines) + n_objects)

    # ------------------------------------------------------------- scanning
    def _vc(self, pool_uuid: str, tid: int, cont: str) -> VosContainer:
        ref = self.system.target(tid)
        return ref.engine.container_shard(pool_uuid, ref.local_tid, cont)

    def _objects(self, pool_uuid: str) -> Iterator[Tuple[str, object]]:
        """Every (cont_uuid, oid) stored anywhere in the pool, in a
        deterministic global order."""
        seen = set()
        for engine in self.system.engines:
            for shard in engine.pools.get(pool_uuid, {}).values():
                for cont_uuid, vc in shard.containers.items():
                    for oid in vc.objects:
                        seen.add((cont_uuid, oid))
        return iter(sorted(seen, key=lambda c_o: (c_o[0], c_o[1].hi, c_o[1].lo)))

    def _source_tid(self, pool_map, orig: int, eff: int, dest: int) -> Optional[int]:
        """Readable source for a layout slot, or None.

        UP originals serve directly; a DOWNOUT original whose spare has
        been fully rebuilt serves through the substitute. Anything else
        (DOWN, REBUILDING, un-rebuilt spare) holds incomplete data and
        must not be used as a rebuild source.
        """
        if pool_map.state_of(orig) == UP:
            return orig
        status = pool_map.statuses.get(orig)
        if (
            status is not None
            and status.state == DOWNOUT
            and status.rebuilt
            and eff != orig
            and eff != dest
            and pool_map.state_of(eff) == UP
        ):
            return eff
        return None

    def _scan(self, job: RebuildJob, after: int) -> Tuple[List[_Item], int]:
        pool_map = self.system._pool_maps[job.pool_uuid]
        placement = PlacementMap(pool_map.n_targets)
        downout = pool_map.downout
        downout_before = downout - {job.tid} if job.kind == "restore" else downout
        items: List[_Item] = []
        objects = set()
        for cont, oid in self._objects(job.pool_uuid):
            layout = placement.layout(oid)
            eff = effective_groups(layout, downout)
            eff_before = (
                effective_groups(layout, downout_before)
                if job.kind == "restore"
                else eff
            )
            for g, group in enumerate(layout.groups):
                for pos in range(len(group)):
                    if job.kind == "resync":
                        if group[pos] != job.tid:
                            continue
                        dest = job.tid
                    else:
                        # restore: only slots whose effective member
                        # changed when job.tid went DOWNOUT need data
                        if eff_before[g][pos] == eff[g][pos]:
                            continue
                        dest = eff[g][pos]
                        if pool_map.state_of(dest) != UP:
                            continue  # no spare / spare unavailable
                    sources = [
                        self._source_tid(pool_map, group[j], eff[g][j], dest)
                        if j != pos
                        else None
                        for j in range(len(group))
                    ]
                    new = self._object_items(
                        job.pool_uuid, cont, oid, sources, pos, dest, after
                    )
                    if new:
                        objects.add((cont, oid))
                        items.extend(new)
        return items, len(objects)

    def _object_items(
        self,
        pool_uuid: str,
        cont: str,
        oid,
        sources: List[Optional[int]],
        pos: int,
        dest: int,
        after: int,
    ) -> List[_Item]:
        src = next((t for t in sources if t is not None), None)
        if src is None:
            return []  # width-1 group or no readable survivor: nothing to pull
        items: List[_Item] = []
        dest_vc = self._vc(pool_uuid, dest, cont)
        src_vc = self._vc(pool_uuid, src, cont)
        ec = oid.oclass.is_ec
        # Single values are replicated across the whole group (EC
        # included), so any one survivor carries them all; full-replica
        # extents come off the same pass. EC cells need reconstruction.
        for entry in src_vc.rebuild_delta(oid, after):
            if entry[0] == "single":
                _, dkey, akey, epoch, value = entry
                if not _dest_has_single(dest_vc, oid, dkey, akey, epoch):
                    items.append(_Item(
                        cont, oid, dkey, akey, "single", dest, src, epoch,
                        nbytes=_value_footprint(value), value=value,
                    ))
            elif not ec:
                _, dkey, akey, offset, payload, epoch = entry
                if not _dest_covered(
                    dest_vc, oid, dkey, akey, offset, payload.nbytes, epoch
                ):
                    items.append(_Item(
                        cont, oid, dkey, akey, "extent", dest, src, epoch,
                        nbytes=payload.nbytes, offset=offset, payload=payload,
                    ))
        if ec:
            items.extend(self._ec_items(
                pool_uuid, cont, oid, sources, pos, dest_vc, dest, after
            ))
        return items

    def _ec_items(
        self,
        pool_uuid: str,
        cont: str,
        oid,
        sources: List[Optional[int]],
        pos: int,
        dest_vc: VosContainer,
        dest: int,
        after: int,
    ) -> List[_Item]:
        """Reconstruct the EC cell (pos < k) or parity (pos >= k) held by
        the destination slot, per dirty (dkey, akey)."""
        oclass = oid.oclass
        k = oclass.ec_k
        # source extent trees per position, and the set of dirty keys
        trees: List[Dict[Tuple, ExtentTree]] = [dict() for _ in sources]
        dirty: Dict[Tuple, int] = {}
        for j, tid in enumerate(sources):
            if tid is None:
                continue
            for dkey, akey, value in self._vc(pool_uuid, tid, cont).walk(oid):
                if not isinstance(value, ExtentTree):
                    continue
                key = (dkey, akey)
                trees[j][key] = value
                newest = value.max_epoch
                if newest > after:
                    dirty[key] = max(dirty.get(key, 0), newest)
        items: List[_Item] = []
        first_src = next(t for t in sources if t is not None)
        for key in sorted(dirty):
            dkey, akey = key
            if pos < k:
                recon = self._reconstruct_data_cell(sources, trees, key, pos, k)
            else:
                recon = self._reconstruct_parity(sources, trees, key, k)
            if recon is None:
                continue  # insufficient survivors for this stripe
            payload, length = recon
            if length == 0:
                continue
            epoch = dirty[key]
            if not _dest_covered(dest_vc, oid, dkey, akey, 0, length, epoch):
                items.append(_Item(
                    cont, oid, dkey, akey, "extent", dest, first_src, epoch,
                    nbytes=length, offset=0, payload=payload.slice(0, length),
                ))
        return items

    def _reconstruct_data_cell(self, sources, trees, key, pos, k):
        """cell[pos] = parity XOR (other data cells), zero-padded to the
        parity cell's length.

        The true cell length is bracketed by its neighbours (cells fill
        left to right within a chunk); when the bounds disagree — a short
        final stripe — we keep the upper bound, which can append trailing
        zero bytes beyond the cell's true end. Reads stay byte-identical
        (missing ranges already read back as zeros); only ``size()`` can
        over-report, a documented deviation (DESIGN.md §9).
        """
        parity_j = next(
            (j for j in range(k, len(sources)) if sources[j] is not None), None
        )
        if parity_j is None:
            return None
        if any(sources[j] is None for j in range(k) if j != pos):
            return None
        ptree = trees[parity_j].get(key)
        pad_len = ptree.size if ptree is not None else 0
        if pad_len == 0:
            return None
        parts = [ptree.read(0, pad_len)]
        for j in range(k):
            if j == pos:
                continue
            parts.append(_padded_cell(trees[j].get(key), pad_len))
        upper = pad_len if pos == 0 else _cell_size(trees[pos - 1].get(key))
        return XorPayload(parts), upper

    def _reconstruct_parity(self, sources, trees, key, k):
        """parity = XOR of all data cells, padded to cell 0's length."""
        if any(sources[j] is None for j in range(k)):
            return None
        pad_len = _cell_size(trees[0].get(key))
        if pad_len == 0:
            return None
        parts = [_padded_cell(trees[j].get(key), pad_len) for j in range(k)]
        return XorPayload(parts), pad_len

    # ------------------------------------------------------------- migration
    def _migrate(self, job: RebuildJob, items: List[_Item]) -> Generator:
        system = self.system
        sim = self.sim
        tracer = sim.tracer
        metrics = sim.metrics
        fabric = system.fabric
        extent_bytes = sum(i.nbytes for i in items if i.kind == "extent")
        flow = None
        if extent_bytes > 0:
            weights = self._flow_weights(items, extent_bytes)
            cap = self.throttle.cap_for(weights.items())
            flow = fabric.flownet.open(
                list(weights.items()), cap=cap,
                label=f"rebuild:{job.pool_uuid}:t{job.tid}",
            )
        span = (
            tracer.begin(
                "rebuild.migrate", "rebuild",
                attrs={"tid": job.tid, "items": len(items),
                       "nbytes": extent_bytes},
            )
            if tracer is not None
            else None
        )
        last_obj = None
        try:
            for item in items:
                if job.cancelled:
                    break
                dest_vc = self._vc(job.pool_uuid, item.dest, item.cont)
                if item.kind == "single":
                    spec = system.target(item.dest).engine.spec
                    yield spec.per_rpc_cpu + spec.module.access_latency
                    dest_vc.replay_single(
                        item.oid, item.dkey, item.akey, item.epoch, item.value
                    )
                else:
                    yield flow.transfer(item.nbytes)
                    dest_vc.replay_array(
                        item.oid, item.dkey, item.akey, item.offset,
                        item.payload, item.epoch,
                    )
                job.items_done += 1
                job.bytes_moved += item.nbytes
                obj = (item.cont, item.oid)
                if obj != last_obj:
                    if last_obj is not None:
                        job.objects_done += 1
                    last_obj = obj
                if metrics is not None:
                    job_label = f"{{pool={job.pool_uuid},target={job.tid}}}"
                    metrics.incr("rebuild.bytes_moved", item.nbytes)
                    metrics.incr("rebuild.items_migrated")
                    metrics.incr(
                        f"rebuild.bytes_moved{job_label}", item.nbytes
                    )
                    metrics.incr(f"rebuild.items_migrated{job_label}")
            if last_obj is not None:
                job.objects_done += 1
        finally:
            if flow is not None:
                fabric.flownet.close(flow)
            if tracer is not None:
                tracer.end(span, moved=job.bytes_moved)

    def _flow_weights(self, items: List[_Item], total: int) -> Dict:
        """Links crossed by this round's flow, weighted by byte share.

        Sources charge their engine media-read path (plus NIC tx/rx when
        crossing nodes); destinations charge engine media-write and the
        per-target xstream link — the same links foreground streams use,
        so the throttle trades off against real foreground bandwidth.
        """
        system = self.system
        fabric = system.fabric
        weights: Dict = defaultdict(float)
        for item in items:
            if item.kind != "extent":
                continue
            frac = item.nbytes / total
            src_ref = system.target(item.src)
            dst_ref = system.target(item.dest)
            weights[src_ref.engine.slot.media_read] += frac
            weights[src_ref.hw.read_link] += frac
            weights[dst_ref.engine.slot.media_write] += frac
            weights[dst_ref.hw.write_link] += frac
            src_node = src_ref.engine.slot.node
            dst_node = dst_ref.engine.slot.node
            if src_node is not dst_node:
                weights[fabric.nic_tx(src_node.addr)] += frac
                weights[fabric.nic_rx(dst_node.addr)] += frac
        return weights


# ----------------------------------------------------------------- helpers
def _cell_size(tree: Optional[ExtentTree]) -> int:
    return tree.size if tree is not None else 0


def _padded_cell(tree: Optional[ExtentTree], pad_len: int) -> Payload:
    if tree is None or tree.size == 0:
        return ZeroPayload(pad_len)
    cell = tree.read(0, tree.size)
    if cell.nbytes >= pad_len:
        return cell.slice(0, pad_len)
    return concat_payloads([cell, ZeroPayload(pad_len - cell.nbytes)])


def _dest_has_single(
    vc: VosContainer, oid, dkey, akey, epoch: int
) -> bool:
    single = vc.value(oid, dkey, akey, SingleValue)
    return single is not None and any(e >= epoch for e, _ in single.history)


def _dest_covered(
    vc: VosContainer, oid, dkey, akey, offset: int, length: int, epoch: int
) -> bool:
    tree = vc.value(oid, dkey, akey, ExtentTree)
    return tree is not None and tree.covered_at(offset, length, epoch)
