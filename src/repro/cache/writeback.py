"""Write-behind buffer: dirty-extent coalescing and flush policy.

A :class:`WriteBehind` sits inside one open :class:`~repro.dfs.file.DfsFile`
handle in ``writeback`` mode.  Writes land in a dirty
:class:`~repro.daos.vos.extent.ExtentTree` with adjacent-extent merging, so
a stream of transfer-size writes coalesces into a handful of large
contiguous extents; the flusher pops contiguous runs (capped at
``wb_max_extent``) and issues them as single array writes — trading N
per-RPC overheads for one, which is where the DFuse writeback bandwidth
win comes from.

Flush triggers (DESIGN.md §8): dirty bytes crossing ``wb_watermark``
during a write, ``fsync``, ``close``, and IOR phase barriers (the runner
fsync/close before each barrier).  A failed flush never drops data: the
run is re-inserted, the storage error is latched, and the *next*
``fsync``/``close`` surfaces :class:`~repro.errors.CacheWritebackError`
naming the still-dirty extents.  After the fault clears (engine
restart), a retry flush can succeed and the latch resets.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Tuple

from repro.cache.config import CacheConfig
from repro.daos.vos.extent import ExtentTree
from repro.daos.vos.payload import Payload
from repro.errors import CacheWritebackError

#: aggregate gauge name — one gauge per metrics registry, all files
#: add/subtract deltas into it so it tracks node-wide dirty bytes
DIRTY_GAUGE = "cache.wb.dirty_bytes"


class WriteBehind:
    """Per-handle dirty buffer with watermark/fsync/close flushing."""

    def __init__(self, config: CacheConfig, sim, path: str = "?"):
        self.config = config
        self.sim = sim
        self.path = path
        self.dirty = ExtentTree()
        #: latched storage error from the last failed flush, if any
        self.error: Optional[Exception] = None

    # ------------------------------------------------------------- metrics
    @property
    def _metrics(self):
        return self.sim.metrics

    def _gauge_add(self, delta: int) -> None:
        m = self._metrics
        if m is not None and delta:
            m.gauge(DIRTY_GAUGE).add(self.sim.now, delta)

    # ------------------------------------------------------------- buffering
    @property
    def dirty_bytes(self) -> int:
        return self.dirty.used_bytes

    @property
    def need_flush(self) -> bool:
        return self.dirty.used_bytes >= self.config.wb_watermark

    def buffer(self, offset: int, payload: Payload) -> None:
        """Absorb a write without touching the store."""
        self._gauge_add(self.dirty.write(offset, payload, merge=True))
        m = self._metrics
        if m is not None:
            m.incr("cache.wb.buffered_writes")
            m.incr("cache.wb.buffered_bytes", payload.nbytes)

    def overlay(self, start: int, nbytes: int):
        """Dirty segments covering a read range (read-your-writes)."""
        return self.dirty.lookup(start, nbytes)

    def high_water(self) -> int:
        """End offset of the highest dirty byte (0 when clean)."""
        return self.dirty.size

    def pending(self) -> List[Tuple[int, int]]:
        """[(offset, nbytes), ...] still dirty — error payload material."""
        return self.dirty.spans()

    # ------------------------------------------------------------- flushing
    def flush(self, write_fn) -> Generator:
        """Task helper: drain the buffer through ``write_fn(off, payload)``.

        Pops lowest-offset contiguous runs capped at ``wb_max_extent``
        and writes each as one coalesced array write. On a storage
        error the run goes back into the buffer, the error latches, and
        this returns ``False`` — callers decide whether to surface it
        (:meth:`raise_pending` on fsync/close) or carry on (watermark
        flush inside ``write``).
        """
        m = self._metrics
        while self.dirty.used_bytes:
            offset, payload = self.dirty.pop_first_run(
                self.config.wb_max_extent
            )
            self._gauge_add(-payload.nbytes)
            t0 = self.sim.now
            try:
                yield from write_fn(offset, payload)
            except Exception as exc:
                # put the data back exactly where it was and latch
                self._gauge_add(self.dirty.write(offset, payload, merge=True))
                self.error = exc
                if m is not None:
                    m.incr("cache.wb.flush_errors")
                return False
            if m is not None:
                m.incr("cache.wb.flush_writes")
                m.incr("cache.wb.flushed_bytes", payload.nbytes)
                m.observe("cache.wb.flush_latency", self.sim.now - t0)
        self.error = None
        return True

    def raise_pending(self) -> None:
        """Raise the typed error if a flush failed and data is still dirty."""
        if self.error is not None and self.dirty.used_bytes:
            raise CacheWritebackError(self.path, self.pending(), self.error)

    def discard(self) -> int:
        """Drop all dirty data (used only by tests / forced teardown)."""
        dropped = self.dirty.clear()
        self._gauge_add(-dropped)
        self.error = None
        return dropped
