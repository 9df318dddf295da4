"""Two-phase collective buffering (ROMIO's generalized collective I/O).

For a collective write:

1. every rank publishes its access range (allgather of metadata);
2. the file is partitioned into *file domains* on a static cyclic
   1 MiB grid, one owner per block among the aggregators (one
   aggregator per client node, ROMIO's ``cb_config_list`` default;
   static striped domains are ROMIO's recommended layout on lock-based
   filesystems because an aggregator's extent locks stay valid across
   calls);
3. each rank ships the pieces of its buffer that fall in each domain to
   that domain's aggregator (alltoallv with the real payload bytes);
4. aggregators coalesce the received pieces into contiguous runs and
   write them with at most ``cb_buffer_size`` per underlying call.

Collective reads run the phases in reverse. The win on DFuse is that
aggregated runs are large and aligned regardless of how ragged the
application accesses are — this is why HDF5-over-MPI-IO keeps up on the
shared-file benchmark while HDF5-over-sec2 does not.

With ``aio_depth > 1`` the aggregator-side storage calls pipeline
through an event queue (:mod:`repro.daos.eq`) with a bounded in-flight
window — ROMIO's ``romio_cb_{read,write} = enable`` plus double
buffering, generalized to N buffers: while one ``cb_buffer``-sized call
is in flight the aggregator launches the next, overlapping storage
latency within a collective call. ``aio_depth <= 1`` keeps the
sequential loops bit-exactly.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Generator, List, Tuple

from repro.daos.eq import EventQueue, reap
from repro.daos.vos.payload import Payload, ZeroPayload, as_payload, concat_payloads
from repro.mpi.runtime import RankCtx
from repro.posix.vfs import FileHandle
from repro.units import MiB, split_aligned

DEFAULT_CB_BUFFER = 16 * MiB


def choose_aggregators(ctx: RankCtx) -> List[int]:
    """One aggregator per client node: the lowest rank on each node."""
    world = ctx.world
    seen = {}
    for rank in range(world.nprocs):
        node = world.node_of(rank).name
        if node not in seen:
            seen[node] = rank
    return sorted(seen.values())


#: absolute file-domain granularity: aggregator ownership is decided in
#: blocks of this size on a static grid (ROMIO's striped ``cb_fd``
#: layout, the recommended mode on lock-based filesystems)
FD_GRAN = MiB


def domain_owner(offset: int, aggregators: List[int],
                 gran: int = FD_GRAN) -> int:
    """The aggregator rank owning the file-domain block at ``offset``.

    Ownership is a *static cyclic* map over absolute file offsets, so an
    aggregator's extent locks from one collective call never conflict
    with another aggregator's next call — the property that lets
    collective buffering sidestep LDLM lock ping-pong entirely.
    """
    return aggregators[(offset // gran) % len(aggregators)]


def split_by_domain(
    offset: int,
    length: int,
    aggregators: List[int],
    gran: int = FD_GRAN,
) -> List[Tuple[int, int, int]]:
    """Split [offset, offset+length) at domain-block boundaries; yields
    (aggregator, start, stop) pieces."""
    out: List[Tuple[int, int, int]] = []
    for block, within, take in split_aligned(offset, length, gran):
        start = block * gran + within
        out.append((domain_owner(start, aggregators, gran), start, start + take))
    return out


def overlaps(blocks: List[Tuple[int, int]],
             ranges: List[Tuple[int, int]]) -> List[Tuple[int, int, int, int]]:
    """``(block index, rank, lo, hi)`` for every non-empty overlap of the
    sorted, disjoint ``(start, stop)`` blocks with each rank's ``(offset,
    length)``, in (block, rank) order; each range is bisected into the
    blocks, O(ranks x log blocks + hits), not O(blocks x ranks)."""
    stops = [stop for _start, stop in blocks]
    hits = []
    for rank, (r_off, r_len) in enumerate(ranges):
        b = bisect_right(stops, r_off)
        while b < len(blocks) and blocks[b][0] < r_off + r_len:
            hits.append((b, rank, max(r_off, blocks[b][0]),
                         min(r_off + r_len, stops[b])))
            b += 1
    return sorted(hit for hit in hits if hit[2] < hit[3])


def _coalesce(pieces: List[Tuple[int, Payload]]) -> List[Tuple[int, Payload]]:
    """Merge adjacent (offset, payload) pieces into contiguous runs."""
    pieces.sort(key=lambda p: p[0])
    runs: List[Tuple[int, List[Payload]]] = []
    end = None
    for offset, payload in pieces:
        if offset == end:
            runs[-1][1].append(payload)
        else:
            runs.append((offset, [payload]))
        end = offset + payload.nbytes
    return [(off, concat_payloads(parts)) for off, parts in runs]


def collective_write(
    ctx: RankCtx,
    handle: FileHandle,
    offset: int,
    data,
    cb_buffer: int = DEFAULT_CB_BUFFER,
    aio_depth: int = 0,
) -> Generator:
    """Task helper (collective): two-phase write; returns bytes written
    by this rank's original request.

    ``aio_depth > 1`` pipelines the aggregator's cb-buffer calls through
    an event queue, keeping up to that many storage writes in flight."""
    payload = as_payload(data)
    yield from ctx.allgather((offset, payload.nbytes), nbytes=32)
    aggregators = choose_aggregators(ctx)

    # Phase 1: exchange — ship my pieces to their domain owners.
    sendmap: Dict[int, List[Tuple[int, Payload]]] = {}
    sizes: Dict[int, int] = {}
    for agg, start, stop in split_by_domain(offset, payload.nbytes,
                                            aggregators):
        piece = payload.slice(start - offset, stop - offset)
        sendmap.setdefault(agg, []).append((start, piece))
        sizes[agg] = sizes.get(agg, 0) + piece.nbytes
    received = yield from ctx.alltoallv(sendmap, sizes)

    # Phase 2: aggregators write their domain in cb-buffer sized calls.
    if ctx.rank in aggregators:
        gathered: List[Tuple[int, Payload]] = []
        for _src, pieces in received.items():
            gathered.extend(pieces)
        runs = _coalesce(gathered)
        eq = EventQueue(
            ctx.sim, depth=aio_depth, name=f"cb.w{ctx.rank}", metered=False
        ) if aio_depth > 1 else None
        for run_offset, run_payload in runs:
            for buf, _within, take in split_aligned(
                0, run_payload.nbytes, cb_buffer
            ):
                written = buf * cb_buffer
                call = handle.pwrite(
                    run_offset + written,
                    run_payload.slice(written, written + take),
                )
                if eq is None:
                    yield from call
                else:
                    yield from eq.submit(
                        call, name=f"cb.write@{run_offset + written}"
                    )
        if eq is not None:
            reap((yield from eq.drain()))
            yield from eq.close()
    yield from ctx.barrier()
    return payload.nbytes


def collective_read(
    ctx: RankCtx,
    handle: FileHandle,
    offset: int,
    length: int,
    cb_buffer: int = DEFAULT_CB_BUFFER,
    aio_depth: int = 0,
) -> Generator:
    """Task helper (collective): two-phase read; returns this rank's
    payload.

    ``aio_depth > 1`` pipelines the aggregator's file-domain block reads
    through an event queue, keeping up to that many in flight."""
    ranges = yield from ctx.allgather((offset, length), nbytes=32)
    lo = min(r[0] for r in ranges)
    hi = max(r[0] + r[1] for r in ranges)
    aggregators = choose_aggregators(ctx)

    # Phase 1: aggregators read the file-domain blocks they own.
    my_blocks: List[Tuple[int, Payload]] = []
    if ctx.rank in aggregators:
        blocks = [
            (start, stop)
            for agg, start, stop in split_by_domain(lo, hi - lo, aggregators)
            if agg == ctx.rank
        ]
        if aio_depth > 1:
            eq = EventQueue(ctx.sim, depth=aio_depth,
                            name=f"cb.r{ctx.rank}", metered=False)
            pending: List[Tuple[int, int, object]] = []
            for start, stop in blocks:
                event = yield from eq.submit(
                    handle.pread(start, stop - start),
                    name=f"cb.read@{start}",
                )
                pending.append((start, stop, event))
            yield from eq.drain()
            yield from eq.close()
            parts = [
                (start, stop, event.result) for start, stop, event in pending
            ]
        else:
            parts = []
            for start, stop in blocks:
                part = yield from handle.pread(start, stop - start)
                parts.append((start, stop, part))
        for start, stop, part in parts:
            if part.nbytes < stop - start:  # EOF: zero-fill
                part = concat_payloads(
                    [part, ZeroPayload(stop - start - part.nbytes)]
                )
            my_blocks.append((start, part))

    # Phase 2: scatter pieces back to the requesting ranks.
    sendmap: Dict[int, List[Tuple[int, Payload]]] = {}
    sizes: Dict[int, int] = {}
    spans = [(b_off, b_off + part.nbytes) for b_off, part in my_blocks]
    for b, rank, lo, hi in overlaps(spans, ranges):
        b_off, b_payload = my_blocks[b]
        piece = b_payload.slice(lo - b_off, hi - b_off)
        sendmap.setdefault(rank, []).append((lo, piece))
        sizes[rank] = sizes.get(rank, 0) + piece.nbytes
    received = yield from ctx.alltoallv(sendmap, sizes)

    pieces: List[Tuple[int, Payload]] = []
    for _src, chunk in received.items():
        pieces.extend(chunk)
    pieces.sort(key=lambda p: p[0])
    if not pieces:
        return as_payload(b"")
    out: List[Payload] = []
    cursor = offset
    for p_off, p_payload in pieces:
        if p_off > cursor:
            out.append(ZeroPayload(p_off - cursor))
            cursor = p_off
        out.append(p_payload)
        cursor += p_payload.nbytes
    if cursor < offset + length:
        out.append(ZeroPayload(offset + length - cursor))
    return concat_payloads(out)
