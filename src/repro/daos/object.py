"""Object handles: the dkey/akey KV interface and the byte-array interface.

A :class:`ObjectHandle` is what ``daos_obj_open`` returns. Two families
of operations are exposed, matching libdaos:

- **KV** (single values): ``put``/``get``/``list_dkeys`` route
  each dkey to its layout group's targets via real engine RPCs (all
  replicas updated on write, first live replica read). Directory
  entries, inodes and mdtest storms travel this path.
- **Array** (byte extents): ``write``/``read``/``size``/``punch_range``
  chunk the byte range into ``chunk_size`` dkeys, fan the pieces out to
  their shard targets, and charge time through the handle's
  :class:`~repro.daos.stream.IoStream` (one per direction).

Routing consults the pool map's per-target rebuild state: UP targets
serve reads and writes, REBUILDING targets accept writes but serve no
reads (their data is incomplete until the resync converges), DOWN and
DOWNOUT targets serve neither, and a DOWNOUT slot is transparently
redirected to its deterministic spare (readable once the restore job
completes). Mutating ops carry the client's map version and are fenced
with DER_STALE by engines holding a newer map; the handle then refreshes
the map and retries — the libdaos stale-map dance that guarantees no
writer keeps routing around a target that has started rebuilding.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.daos.objid import ObjId
from repro.daos.placement import (
    HEALTHY, HEALTHY_SOLO, Layout, Route, effective_groups,
)
from repro.daos.stream import IoPiece, IoStream
from repro.daos.vos import ec
from repro.daos.vos.payload import Payload, as_payload, concat_payloads
from repro.errors import DerDataLoss, DerInval, DerStale
from repro.obs.tracer import span_of
from repro.rebuild.state import REBUILDING, UP
from repro.units import MiB, split_aligned

ARRAY_AKEY = b"\x00arr"
DEFAULT_CHUNK = MiB


class ObjectHandle:
    """Open handle on one object within a container."""

    #: DER_STALE refresh-and-retry budget for mutating ops
    MAX_MAP_RETRIES = 8

    def __init__(self, cont, oid: ObjId):
        self.cont = cont  # ContainerHandle
        self.client = cont.client
        self.system = self.client.system
        self.sim = self.client.sim
        self.oid = oid
        self.layout: Layout = cont.pool.placement.layout(oid)
        self._streams: Dict[str, Tuple[IoStream, int]] = {}
        self._route_cache: Optional[Tuple[int, Sequence[Sequence[Route]]]] = None
        self._closed = False

    # ------------------------------------------------------------- plumbing
    @property
    def _ctx(self) -> Tuple[str, str, ObjId]:
        return (self.cont.pool.pool_map.uuid, self.cont.uuid, self.oid)

    def _routes(self) -> Sequence[Sequence[Route]]:
        """Per-group routing derived from the pool map, cached per map
        version: a tuple of tuples. On a healthy pool every entry is the
        shared per-target ``(t, True, True)``, and a width-1 group's
        whole route is shared too (:data:`~repro.daos.placement.
        HEALTHY_SOLO`)."""
        pool_map = self.cont.pool.pool_map
        cached = self._route_cache
        if cached is not None and cached[0] == pool_map.version:
            return cached[1]
        groups = self.layout.groups
        if pool_map.statuses:
            ready = pool_map.downout_ready
            routes = []
            for group, egroup in zip(
                groups, effective_groups(self.layout, pool_map.downout),
            ):
                route: List[Route] = []
                for orig, actual in zip(group, egroup):
                    state = pool_map.state_of(actual)
                    if actual != orig:
                        # DOWNOUT slot served by its spare: writable as
                        # soon as the spare is UP, readable only once
                        # every restore has landed (downout_ready)
                        up = state == UP
                        route.append((actual, up and ready, up))
                    elif state == UP:
                        route.append(HEALTHY[actual])
                    elif state == REBUILDING:
                        route.append((actual, False, True))
                    else:  # DOWN, or DOWNOUT with no spare left
                        route.append((actual, False, False))
                routes.append(tuple(route))
            routes = tuple(routes)
        elif len(groups[0]) == 1:
            routes = tuple([HEALTHY_SOLO[t] for t, in groups])
        else:
            routes = tuple([tuple([HEALTHY[t] for t in group])
                            for group in groups])
        self._route_cache = (pool_map.version, routes)
        return routes

    def _route_for_dkey(self, dkey) -> Sequence[Route]:
        return self._routes()[self.layout.group_of_dkey(dkey)]

    @staticmethod
    def _reader(route: Sequence[Route]) -> int:
        """The replica that serves reads of ``route``'s group."""
        for tid, readable, _w in route:
            if readable:
                return tid
        raise DerDataLoss(
            f"every readable replica excluded (targets {[e[0] for e in route]})"
        )

    @staticmethod
    def _writable(route: Sequence[Route]) -> List[int]:
        """The targets a mutation of ``route``'s group must reach. This
        is the one place that decides an op with nowhere to land is data
        loss, so no mutating op can report success having reached no
        target."""
        targets = [t for t, _r, writable in route if writable]
        if not targets:
            raise DerDataLoss(
                "every writable replica excluded "
                f"(targets {[e[0] for e in route]})"
            )
        return targets

    def _vos(self, tid: int):
        ref = self.system.target(tid)
        return ref.engine.container_shard(
            self.cont.pool.pool_map.uuid, ref.local_tid, self.cont.uuid
        )

    def _call(self, tid: int, op: str, extra: dict,
              req_bytes: int = 256, rep_bytes: int = 256) -> Generator:
        """The target-RPC envelope: ``op`` on target ``tid``'s engine
        with the pool / container / shard / object addressing every
        object RPC carries, plus the op's own ``extra`` arguments."""
        ref = self.system.target(tid)
        args = {
            "pool": self.cont.pool.pool_map.uuid,
            "cont": self.cont.uuid,
            "local_tid": ref.local_tid,
            "oid": self.oid,
            **extra,
        }
        return self.client.rpc.call(
            ref.engine.server, op, args, req_bytes, rep_bytes
        )

    def _writers(self, dkey) -> List[int]:
        return self._writable(self._route_for_dkey(dkey))

    def _mutate(self, targets, op: str, extra: dict,
                req_bytes: int = 256) -> Generator:
        """Fan a mutating ``op`` out to ``targets`` (what
        :meth:`_writable` said it must reach), stamped with the client's
        map version so an engine holding a newer map fences it. Returns
        the last reply."""
        extra = {**extra, "map_version": self.cont.pool.pool_map.version}
        reply = None
        for tid in targets:
            reply = yield from self._call(tid, op, extra, req_bytes)
        return reply

    def _stream(self, direction: str) -> IoStream:
        pool_map = self.cont.pool.pool_map
        cached = self._streams.get(direction)
        if cached is not None and cached[1] == pool_map.version:
            return cached[0]
        if cached is not None:
            cached[0].close()
        want = 1 if direction == "read" else 2
        targets: List[int] = []
        seen = set()
        for route in self._routes():
            for entry in route:
                if entry[want] and entry[0] not in seen:
                    seen.add(entry[0])
                    targets.append(entry[0])
        stream = IoStream(self.client, targets, direction)
        stream.open()
        self._streams[direction] = (stream, pool_map.version)
        return stream

    def close(self) -> None:
        for stream, _version in self._streams.values():
            stream.close()
        self._streams.clear()
        self._closed = True

    def __enter__(self) -> "ObjectHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def _retry_stale(self, attempt) -> Generator:
        """Run ``attempt()`` (a fresh generator each call); when an engine
        fences it with DER_STALE, refresh the pool map — invalidating the
        route/stream caches keyed on its version — and retry. Each retry
        is counted in the metrics registry so rebuild-era reruns are
        distinguishable from healthy ones in reports."""
        retries = self.MAX_MAP_RETRIES
        while True:
            try:
                return (yield from attempt())
            except DerStale:
                metrics = self.sim.metrics
                if metrics is not None:
                    metrics.incr("client.der_stale.retries")
                    metrics.incr(
                        f"client.der_stale.retries"
                        f"{{pool={self.cont.pool.pool_map.label}}}"
                    )
                retries -= 1
                if retries <= 0:
                    raise
                yield from self.cont.pool.refresh_map()

    # ------------------------------------------------------------- KV ops
    def put(self, dkey, akey, value, value_nbytes: int = 0) -> Generator:
        """Write a single value to every writable replica of the dkey's
        group (REBUILDING targets included — that is what bounds the
        resync window).

        ``value_nbytes`` declares the modelled wire/media size of the
        value (an inline-bulk KV update): the request carries that many
        extra bytes across the fabric and the engine streams them to
        media at the target's write bandwidth. Zero (the default) keeps
        the fixed small-record cost every metadata path relies on.
        """
        return (
            yield from self._retry_stale(
                lambda: self._put_once(dkey, akey, value, value_nbytes)
            )
        )

    def _put_once(self, dkey, akey, value, value_nbytes: int = 0) -> Generator:
        targets = self._writers(dkey)
        extra = {"dkey": dkey, "akey": akey, "value": value}
        if value_nbytes:
            extra["nbytes"] = value_nbytes
        with span_of(self.sim, "client.kv_put", "client",
                     self.client.node.name, replicas=len(targets)):
            return (
                yield from self._mutate(
                    targets, "kv_update", extra, 256 + value_nbytes
                )
            )

    def get(self, dkey, akey, value_nbytes: int = 0) -> Generator:
        """Read a single value from the first readable replica.

        ``value_nbytes`` mirrors :meth:`put`: the reply carries that
        many extra bytes and the engine charges a media read stream."""
        tid = self._reader(self._route_for_dkey(dkey))
        extra = {"dkey": dkey, "akey": akey}
        if value_nbytes:
            extra["nbytes"] = value_nbytes
        with span_of(self.sim, "client.kv_get", "client",
                     self.client.node.name):
            value = yield from self._call(
                tid, "kv_fetch", extra, rep_bytes=256 + value_nbytes
            )
        return value

    def punch_dkey(self, dkey) -> Generator:
        return (
            yield from self._retry_stale(lambda: self._mutate(
                self._writers(dkey), "punch_dkey", {"dkey": dkey}
            ))
        )

    def list_dkeys(self, lo=None, hi=None, limit: int = 1024) -> Generator:
        """Enumerate dkeys across all groups (merged, sorted)."""
        merged: List = []
        seen = set()
        for route in self._routes():
            keys = yield from self._call(
                self._reader(route), "list_dkeys",
                {"lo": lo, "hi": hi, "limit": limit},
            )
            for key in keys:
                if key not in seen:
                    seen.add(key)
                    merged.append(key)
        merged.sort()
        return merged[:limit]

    def punch_object(self) -> Generator:
        """Remove the object's data from every writable shard target."""
        yield from self._retry_stale(lambda: self._mutate(
            dict.fromkeys(  # each target once, every group reachable
                tid for route in self._routes() for tid in self._writable(route)
            ),
            "punch_object", {},
        ))
        return True

    # ------------------------------------------------------------- array ops
    def _write_piece(self, tid: int, chunk_idx: int,
                     within: int, fragment: Payload) -> IoPiece:
        vc = self._vos(tid)
        return IoPiece(
            tid, fragment.nbytes,
            lambda: vc.update_array(self.oid, chunk_idx, ARRAY_AKEY, within,
                                    fragment),
        )

    def _read_piece(self, tid: int, chunk_idx: int,
                    within: int, take: int) -> IoPiece:
        vc = self._vos(tid)
        return IoPiece(
            tid, take,
            lambda: vc.fetch_array(self.oid, chunk_idx, ARRAY_AKEY, within, take),
        )

    def _chunk_pieces_write(
        self, offset: int, payload: Payload, chunk_size: int
    ) -> List[IoPiece]:
        pieces: List[IoPiece] = []
        cursor = 0
        is_ec = self.oid.oclass.is_ec
        for chunk_idx, within, take in split_aligned(
            offset, payload.nbytes, chunk_size
        ):
            fragment = payload.slice(cursor, cursor + take)
            cursor += take
            route = self._route_for_dkey(chunk_idx)
            if is_ec:
                pieces.extend(
                    self._ec_write_pieces(
                        chunk_idx, within, fragment, chunk_size, route
                    )
                )
            else:
                pieces.extend(
                    self._write_piece(tid, chunk_idx, within, fragment)
                    for tid in self._writable(route)
                )
        return pieces

    # ------------------------------------------------------------- erasure coding
    def _ec_write_pieces(
        self, chunk_idx: int, within: int, fragment: Payload,
        chunk_size: int, route: Sequence[Route],
    ) -> List[IoPiece]:
        """Full-stripe erasure-coded write of one chunk.

        DAOS buffers partial EC writes in a replicated staging space and
        migrates them at aggregation time; this reproduction requires
        stripe-aligned writes outright (IOR with transfer >= chunk size
        satisfies it) — DESIGN.md §7.3.
        """
        k = self.oid.oclass.ec_k
        cell = ec.cell_len(chunk_size, k)
        if within != 0:
            raise DerInval(
                "erasure-coded objects require stripe-aligned writes "
                f"(offset within chunk = {within})"
            )
        if not ec.recoverable([e[2] for e in route], k):
            raise DerDataLoss(
                f"chunk {chunk_idx}: too many failures for an EC stripe "
                f"write (targets {[e[0] for e in route]})"
            )
        cells = ec.split(fragment, k, cell)
        parity = ec.parity(cells)
        # every non-empty cell, then each parity slot; an unwritable
        # cell is reconstructed from parity on read
        stripe = [(route[pos], c) for pos, c in enumerate(cells) if c.nbytes]
        stripe += [(slot, parity) for slot in route[k:]]
        return [
            self._write_piece(tid, chunk_idx, 0, part)
            for (tid, _readable, writable), part in stripe if writable
        ]

    def _ec_read_pieces(
        self, chunk_idx: int, within: int, take: int, chunk_size: int,
    ) -> List[Tuple[List[IoPiece], object]]:
        """Plan an EC chunk read: per touched cell, either a direct piece
        or a degraded-reconstruction piece set with a combiner."""
        k = self.oid.oclass.ec_k
        route = self._route_for_dkey(chunk_idx)
        plan = []
        for pos, cell_off, cell_take in split_aligned(
            within, take, ec.cell_len(chunk_size, k)
        ):
            if route[pos][1]:
                sources, combine = [pos], None
            else:
                sources = ec.survivors([e[1] for e in route], pos, k)
                if sources is None:
                    raise DerDataLoss(
                        f"chunk {chunk_idx} cell {pos}: too many failures "
                        "for EC reconstruction"
                    )
                combine = partial(ec.xor, length=cell_take)
            plan.append(([self._read_piece(route[j][0], chunk_idx,
                                           cell_off, cell_take)
                          for j in sources], combine))
        return plan

    def write(
        self,
        offset: int,
        data,
        *,
        chunk_size: int = DEFAULT_CHUNK,
    ) -> Generator:
        """Task helper: write ``data`` at byte ``offset``; returns nbytes."""
        payload = as_payload(data)
        if payload.nbytes == 0:
            return 0
        return (
            yield from self._retry_stale(
                lambda: self._write_once(offset, payload, chunk_size)
            )
        )

    def _write_once(
        self, offset: int, payload: Payload, chunk_size: int
    ) -> Generator:
        pool_map = self.cont.pool.pool_map
        pieces = self._chunk_pieces_write(offset, payload, chunk_size)
        with span_of(self.sim, "client.array_write", "client",
                     self.client.node.name,
                     offset=offset, nbytes=payload.nbytes):
            yield from self._stream("write").io(
                pieces, self._ctx, map_version=pool_map.version
            )
        return payload.nbytes

    def read(
        self,
        offset: int,
        length: int,
        *,
        chunk_size: int = DEFAULT_CHUNK,
    ) -> Generator:
        """Task helper: read ``length`` bytes (holes zero-filled)."""
        if length <= 0:
            return as_payload(b"")
        is_ec = self.oid.oclass.is_ec
        #: list of (pieces, combine): combine=None yields pieces[0]'s
        #: result; otherwise combine(results) reconstructs the fragment
        plan: List = []
        for chunk_idx, within, take in split_aligned(offset, length, chunk_size):
            if is_ec:
                plan.extend(
                    self._ec_read_pieces(chunk_idx, within, take, chunk_size)
                )
            else:
                tid = self._reader(self._route_for_dkey(chunk_idx))
                plan.append((
                    [self._read_piece(tid, chunk_idx, within, take)],
                    None,
                ))
        flat: List[IoPiece] = [p for pieces, _c in plan for p in pieces]
        with span_of(self.sim, "client.array_read", "client",
                     self.client.node.name, offset=offset, nbytes=length):
            results = yield from self._stream("read").io(flat, self._ctx)
        out: List[Payload] = []
        index = 0
        for pieces, combine in plan:
            batch = results[index : index + len(pieces)]
            index += len(pieces)
            out.append(batch[0] if combine is None else combine(batch))
        return concat_payloads(out)

    def size(self, *, chunk_size: int = DEFAULT_CHUNK) -> Generator:
        """Task helper: apparent array size (max written byte + 1).

        Non-EC: a size query per layout group leader. EC: a query per
        readable *data* shard (cell positions map back to file offsets)."""
        oclass = self.oid.oclass
        high = 0
        for route in self._routes():
            if oclass.is_ec:
                cell = ec.cell_len(chunk_size, oclass.ec_k)
                queried = [
                    (ec.cell_offset(pos, cell), entry[0])
                    for pos, entry in enumerate(route[: oclass.ec_k])
                    if entry[1]
                ]
                if not queried:
                    raise DerDataLoss("all data shards excluded")
            else:
                queried = [(0, self._reader(route))]
            for cell_base, tid in queried:
                sizes = yield from self._call(
                    tid, "array_sizes", {"akey": ARRAY_AKEY}
                )
                for chunk_idx, size in sizes:
                    high = max(high, chunk_idx * chunk_size + cell_base + size)
        return high

    def punch_range(
        self,
        offset: int,
        length: int,
        *,
        chunk_size: int = DEFAULT_CHUNK,
    ) -> Generator:
        """Task helper: punch bytes [offset, offset+length)."""
        return (
            yield from self._retry_stale(
                lambda: self._punch_range_once(offset, length, chunk_size)
            )
        )

    def _punch_range_once(
        self, offset: int, length: int, chunk_size: int
    ) -> Generator:
        freed = 0
        for chunk_idx, within, take in split_aligned(offset, length, chunk_size):
            freed = yield from self._mutate(
                self._writers(chunk_idx), "array_punch",
                {"dkey": chunk_idx, "akey": ARRAY_AKEY,
                 "offset": within, "length": take},
            )
        return freed
