"""Open DFS regular files."""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro.cache.readahead import ReadAhead
from repro.cache.writeback import WriteBehind
from repro.daos.object import ObjectHandle
from repro.daos.vos.extent import ExtentTree
from repro.daos.vos.payload import Payload, as_payload, concat_payloads
from repro.dfs.layout import InodeEntry
from repro.errors import CacheWritebackError
from repro.obs.tracer import span_of


class SharedFileState:
    """Per-file state shared by every open handle on the same mount.

    Fixes cross-handle staleness of the per-handle size cache: a writer
    extending the file raises ``high_water`` here, and every other
    handle's read clamp takes it as an extra lower bound, so handle B
    sees handle A's growth without a fresh size query.  ``epoch`` bumps
    whenever the file shrinks or is replaced (truncate, unlink) so the
    caching tier can invalidate stale data and size state.
    """

    __slots__ = ("high_water", "epoch")

    def __init__(self) -> None:
        self.high_water = 0
        self.epoch = 0


class DfsFile:
    """An open regular file: an array object + its chunk size.

    Size semantics follow DFS: the apparent size is derived from the
    array object's highest extent. The handle keeps a local high-water
    mark so that a writer does not need a size query per operation; a
    fresh query happens on :meth:`get_size` / ``stat``. Handles on the
    same mount additionally share a :class:`SharedFileState`, so size
    growth through one handle is visible to reads through another.

    With the caching tier enabled (``dfs.cache``), the handle grows a
    write-behind buffer (``writeback`` mode) and a read-ahead engine —
    see :mod:`repro.cache`.  In the default ``none`` mode neither object
    exists and the I/O paths below are byte-identical to the uncached
    build.
    """

    def __init__(self, dfs, entry: InodeEntry, obj: ObjectHandle,
                 path: str = "?"):
        self.dfs = dfs
        self.entry = entry
        self.obj = obj
        self.path = path
        self.chunk_size = entry.chunk_size
        self._local_high = 0
        #: size learned from the store (None until first queried). Reads
        #: clamp against this cached value — one size query per handle,
        #: not one per read, matching dfuse attribute caching.
        self._size_cache = None
        self._closed = False
        self.shared: SharedFileState = dfs.file_state(entry)
        self._epoch_seen = self.shared.epoch
        cfg = dfs.cache
        self.wb: Optional[WriteBehind] = (
            WriteBehind(dfs.client.sim, path)
            if cfg is not None and cfg.writeback else None
        )
        self.ra: Optional[ReadAhead] = (
            ReadAhead() if cfg is not None else None
        )
        self._ra_buf: Optional[ExtentTree] = (
            ExtentTree() if cfg is not None else None
        )
        # Canonical labeled read-ahead metric names, built once per
        # handle — the hit counter sits inside the read segment loop.
        self._sim = dfs.client.sim
        self._node = dfs.client.node.name
        node = f"{{node={self._node}}}"
        self._ra_hit_metric = f"cache.ra.hit_bytes{node}"
        self._ra_prefetch_metric = f"cache.ra.prefetches{node}"
        self._ra_prefetched_metric = f"cache.ra.prefetched_bytes{node}"

    # ------------------------------------------------------------- I/O
    def _check_epoch(self) -> None:
        """React to a truncate/replace through another handle."""
        if self.shared.epoch != self._epoch_seen:
            self._epoch_seen = self.shared.epoch
            self._size_cache = None
            self._local_high = 0
            if self._ra_buf is not None:
                self._ra_buf.clear()

    def write(self, offset: int, data) -> Generator:
        """Task helper: write at ``offset``; returns bytes written."""
        payload = as_payload(data)
        if self.wb is not None:
            return (yield from self._write_buffered(offset, payload))
        with span_of(self._sim, "dfs.write", "dfs", self._node,
                     offset=offset, nbytes=payload.nbytes):
            nbytes = yield from self.obj.write(
                offset, payload, chunk_size=self.chunk_size
            )
        self._local_high = max(self._local_high, offset + nbytes)
        if self._size_cache is not None:
            self._size_cache = max(self._size_cache, self._local_high)
        self.shared.high_water = max(self.shared.high_water, self._local_high)
        return nbytes

    def _write_buffered(self, offset: int, payload: Payload) -> Generator:
        """Writeback mode: absorb into the dirty buffer; flush on watermark."""
        self._check_epoch()
        with span_of(self._sim, "cache.wb.write", "cache", self._node,
                     offset=offset, nbytes=payload.nbytes):
            yield self.dfs.cache.copy_cost(payload.nbytes)
            self.wb.buffer(offset, payload)
        self._local_high = max(self._local_high, offset + payload.nbytes)
        if self._size_cache is not None:
            self._size_cache = max(self._size_cache, self._local_high)
        if self.wb.need_flush:
            # watermark flush; a failure latches inside the buffer and
            # surfaces on the next fsync/close, never here
            yield from self.flush()
        return payload.nbytes

    def _commit(self, offset: int, payload: Payload) -> Generator:
        """Issue one coalesced store write on behalf of the flusher."""
        with span_of(self._sim, "dfs.write", "dfs", self._node,
                     offset=offset, nbytes=payload.nbytes, coalesced=True):
            nbytes = yield from self.obj.write(
                offset, payload, chunk_size=self.chunk_size
            )
        self.shared.high_water = max(self.shared.high_water, offset + nbytes)
        return nbytes

    def read(self, offset: int, length: int) -> Generator:
        """Task helper: read up to ``length`` bytes; short read at EOF."""
        if self.ra is None and self.wb is None:
            with span_of(self._sim, "dfs.read", "dfs", self._node,
                         offset=offset, nbytes=length):
                if self._size_cache is None:
                    yield from self.get_size()
                size = max(self._size_cache, self._local_high,
                           self.shared.high_water)
                if offset >= size:
                    return as_payload(b"")
                length = min(length, size - offset)
                payload = yield from self.obj.read(
                    offset, length, chunk_size=self.chunk_size
                )
            return payload
        return (yield from self._read_cached(offset, length))

    def _read_cached(self, offset: int, length: int) -> Generator:
        """Cached read: write-behind overlay + read-ahead buffer + store."""
        self._check_epoch()
        with span_of(self._sim, "dfs.read", "dfs", self._node,
                     offset=offset, nbytes=length):
            if self._size_cache is None:
                yield from self.get_size()
            size = max(self._size_cache, self._local_high,
                       self.shared.high_water)
            if self.wb is not None:
                size = max(size, self.wb.high_water())
            if length <= 0 or offset >= size:
                return as_payload(b"")
            length = min(length, size - offset)
            self.ra.observe(offset, length)
            metrics = self.dfs.client.sim.metrics
            parts: List[Payload] = []
            copy_bytes = 0
            segments = (
                self.wb.overlay(offset, length) if self.wb is not None
                else [(offset, length, None)]
            )
            for seg_start, seg_len, dirty in segments:
                if dirty is not None:
                    rel = seg_start - dirty.offset
                    parts.append(dirty.payload.slice(rel, rel + seg_len))
                    copy_bytes += seg_len
                    continue
                for sub_start, sub_len, ra_ext in self._ra_buf.lookup(
                    seg_start, seg_len
                ):
                    if ra_ext is not None:
                        rel = sub_start - ra_ext.offset
                        parts.append(ra_ext.payload.slice(rel, rel + sub_len))
                        copy_bytes += sub_len
                        if metrics is not None:
                            metrics.incr(self._ra_hit_metric, sub_len)
                    else:
                        fetched = yield from self._fetch(
                            sub_start, sub_len, offset + length, size
                        )
                        parts.append(fetched.slice(0, sub_len))
            if copy_bytes:
                with span_of(self._sim, "cache.read.copy", "cache",
                             self._node, nbytes=copy_bytes):
                    yield self.dfs.cache.copy_cost(copy_bytes)
            result = concat_payloads(parts)
        return result

    def _fetch(self, start: int, need: int, req_stop: int,
               size: int) -> Generator:
        """Read a hole from the store, widened by the read-ahead window
        when this is the final hole of a sequential stream."""
        extra = 0
        stop = start + need
        if stop >= req_stop:
            extra = min(self.ra.window(), max(0, size - stop))
        payload = yield from self.obj.read(
            start, need + extra, chunk_size=self.chunk_size
        )
        if extra > 0 and payload.nbytes > need:
            got = payload.nbytes - need
            # one window in flight: the buffer is exactly the last prefetch
            self._ra_buf.clear()
            self._ra_buf.write(stop, payload.slice(need, payload.nbytes))
            self.ra.note_prefetch(got)
            metrics = self.dfs.client.sim.metrics
            if metrics is not None:
                metrics.incr(self._ra_prefetch_metric)
                metrics.incr(self._ra_prefetched_metric, got)
        return payload

    def get_size(self) -> Generator:
        """Task helper: file size from the array object (authoritative)."""
        size = yield from self.obj.size(chunk_size=self.chunk_size)
        self._local_high = max(self._local_high, size)
        self._size_cache = self._local_high
        self.shared.high_water = max(self.shared.high_water, self._local_high)
        return self._local_high

    def truncate(self, size: int) -> Generator:
        """Task helper: punch everything past ``size``."""
        if self.wb is not None and self.wb.dirty_bytes:
            yield from self.flush()
            self.wb.raise_pending()
        current = yield from self.get_size()
        if size < current:
            yield from self.obj.punch_range(
                size, current - size, chunk_size=self.chunk_size
            )
        elif size > current:
            # extend by writing a zero byte at the end, like dfs_punch
            # extending the apparent size with a trailing extent
            yield from self.obj.write(
                size - 1, b"\x00", chunk_size=self.chunk_size
            )
        self._local_high = size
        self._size_cache = size
        self.shared.high_water = size
        self.shared.epoch += 1
        self._epoch_seen = self.shared.epoch
        if self._ra_buf is not None:
            self._ra_buf.clear()
        return size

    def flush(self) -> Generator:
        """Task helper: drain write-behind dirty data as coalesced writes.

        A storage failure latches inside the buffer (data is kept); call
        :meth:`sync` or :meth:`close` to surface it as a typed error.
        """
        if self.wb is not None and self.wb.dirty_bytes:
            with span_of(self._sim, "cache.wb.flush", "cache", self._node,
                         dirty_bytes=self.wb.dirty_bytes):
                yield from self.wb.flush(self._commit)
        return None

    def sync(self) -> Generator:
        """fsync: flush write-behind data, then the usual no-op RPC round.

        Raises :class:`~repro.errors.CacheWritebackError` if buffered
        data could not be committed (e.g. the engine crashed); the data
        stays buffered, so a later sync after recovery retries.
        """
        if self.wb is not None:
            yield from self.flush()
            self.wb.raise_pending()
        yield 0.0
        return None

    def close(self) -> None:
        """Release the handle. Refuses to drop dirty write-behind data:
        callers flush first (see :meth:`flush`); if dirty bytes remain —
        typically because the flush failed — the typed error surfaces
        here and the handle stays open so a retry can still succeed."""
        if self._closed:
            return
        if self.wb is not None and self.wb.dirty_bytes:
            cause = self.wb.error or RuntimeError(
                "unflushed write-behind data at close"
            )
            raise CacheWritebackError(self.path, self.wb.pending(), cause)
        self.obj.close()
        self._closed = True
