"""Extent-granular data page cache with LRU eviction under a budget.

One :class:`PageCache` serves a whole mount (all files share the
node-derived memory budget).  Each insert gets a monotonic id, stamped
on the extent it stores; an LRU ring keyed by that id orders inserts by
last use, and going over budget evicts whatever is left of the
least-recently-used inserts until the cache fits — all deterministic (no
clocks, no randomness), so cached runs replay exactly.

Consistency is epoch-based: every file carries an epoch (bumped by
truncate/unlink/overwrite-through-another-path, see
:class:`repro.dfs.file.SharedFileState`); a lookup presenting a newer
epoch than the cached one drops the file's extents first, which is the
"invalidation on size/epoch change" rule of the DESIGN.md §8.2
consistency model.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Hashable, List, Optional, Tuple

from repro.daos.vos.extent import ExtentTree
from repro.daos.vos.payload import Payload


class _FileView:
    __slots__ = ("extents", "epoch")

    def __init__(self, epoch: int):
        self.extents = ExtentTree()
        self.epoch = epoch


class _Slot:
    """What one insert still holds: ``live`` bytes of file ``key``, all
    inside [start, stop) and stamped with the insert's id — so a trimmed
    insert keeps its slot until its last byte goes."""

    __slots__ = ("key", "start", "stop", "live")

    def __init__(self, key: Hashable, start: int, nbytes: int):
        self.key = key
        self.start = start
        self.stop = start + nbytes
        self.live = nbytes


class PageCache:
    """Shared per-mount data cache: file key -> extent map, global LRU."""

    def __init__(self, capacity: int, sim=None, labels=None):
        if capacity <= 0:
            raise ValueError("page cache capacity must be positive")
        self.capacity = capacity
        self.sim = sim
        # Canonical label suffix precomputed once; metric names become
        # e.g. cache.page.hit_bytes{node=cn0}.
        if labels:
            from repro.obs.metrics import format_metric_name
            self._label_suffix = format_metric_name("", labels)
        else:
            self._label_suffix = ""
        self._files: Dict[Hashable, _FileView] = {}
        #: insert id -> its slot, least recently used first
        self._lru: "OrderedDict[int, _Slot]" = OrderedDict()
        self._next_id = 1
        self.used_bytes = 0

    # ------------------------------------------------------------- metrics
    def _incr(self, name: str, amount: float = 1.0) -> None:
        metrics = self.sim.metrics if self.sim is not None else None
        if metrics is not None:
            metrics.incr(f"cache.page.{name}{self._label_suffix}", amount)

    # ------------------------------------------------------------- epochs
    def _view(self, key: Hashable, epoch: int) -> _FileView:
        view = self._files.get(key)
        if view is None:
            view = self._files[key] = _FileView(epoch)
        elif view.epoch != epoch:
            self._drop_view(key, view)
            view = self._files[key] = _FileView(epoch)
            self._incr("epoch_invalidations")
        return view

    def _drop_view(self, key: Hashable, view: _FileView) -> None:
        self.used_bytes -= view.extents.used_bytes
        for ext in view.extents:
            self._lru.pop(ext.epoch, None)
        del self._files[key]

    def invalidate_file(self, key: Hashable) -> None:
        view = self._files.get(key)
        if view is not None:
            self._drop_view(key, view)

    def invalidate_range(self, key: Hashable, start: int, nbytes: int) -> None:
        """Drop cached data overlapping a write-through (readonly mode)."""
        view = self._files.get(key)
        if view is not None:
            self._trim(view, start, nbytes)

    def _trim(self, view: _FileView, start: int, nbytes: int) -> None:
        """Drop [start, start+nbytes) of a file, settling the slot of
        every insert it cuts into (freed with the insert's last byte)."""
        for _start, seg_len, ext in view.extents.lookup(start, nbytes):
            if ext is not None:
                slot = self._lru[ext.epoch]
                slot.live -= seg_len
                if not slot.live:
                    del self._lru[ext.epoch]
        self.used_bytes -= view.extents.punch(start, nbytes)

    # ------------------------------------------------------------- access
    def lookup(self, key: Hashable, epoch: int, start: int, nbytes: int
               ) -> List[Tuple[int, int, Optional[Payload]]]:
        """Cover [start, start+nbytes): ``(seg_start, len, payload|None)``.

        Hits touch the LRU ring; holes come back as ``None`` for the
        caller to read through and :meth:`insert`.
        """
        view = self._view(key, epoch)
        out: List[Tuple[int, int, Optional[Payload]]] = []
        hit = miss = 0
        for seg_start, seg_len, ext in view.extents.lookup(start, nbytes):
            if ext is None:
                out.append((seg_start, seg_len, None))
                miss += seg_len
            else:
                rel = seg_start - ext.offset
                out.append((seg_start, seg_len,
                            ext.payload.slice(rel, rel + seg_len)))
                hit += seg_len
                self._lru.move_to_end(ext.epoch)
        if hit:
            self._incr("hits")
            self._incr("hit_bytes", hit)
        if miss:
            self._incr("misses")
            self._incr("miss_bytes", miss)
        return out

    def insert(self, key: Hashable, epoch: int, start: int,
               payload: Payload) -> None:
        """Cache ``payload`` at ``start``; evicts LRU inserts to fit.

        Payloads larger than the whole budget are trimmed to the budget's
        tail-end (matching a streaming read's most-recently-seen bytes).
        """
        if payload.nbytes == 0:
            return
        if payload.nbytes > self.capacity:
            skip = payload.nbytes - self.capacity
            start += skip
            payload = payload.slice(skip, payload.nbytes)
        view = self._view(key, epoch)
        self._trim(view, start, payload.nbytes)
        eid = self._next_id
        self._next_id += 1
        self.used_bytes += view.extents.write(start, payload, epoch=eid)
        self._lru[eid] = _Slot(key, start, payload.nbytes)
        self._evict_to_fit()

    def _evict_to_fit(self) -> None:
        while self.used_bytes > self.capacity and self._lru:
            eid, slot = self._lru.popitem(last=False)
            extents = self._files[slot.key].extents
            for _start, _len, ext in extents.lookup(
                slot.start, slot.stop - slot.start
            ):
                if ext is not None and ext.epoch == eid:
                    extents.remove(ext)
            self.used_bytes -= slot.live
            self._incr("evictions")
            self._incr("evicted_bytes", slot.live)
