"""Byte-granular interval map — the one holder of byte ranges.

An :class:`ExtentTree` keeps non-overlapping extents sorted by offset,
each carrying a lazy :class:`~repro.daos.vos.payload.Payload` and the
stamp (``epoch``) of the write that produced it. A new write overlays
what it overlaps — newest data wins at the byte level, trimmed survivors
keep their stamp — and a lookup covers a range with stored segments and
holes. VOS array values (the evtree equivalent), Lustre OST objects, the
page cache, the write-behind buffer and the read-ahead buffer all hold
this class; what each passes as the stamp is in DESIGN.md §7.3.

Unlike the real evtree superseded versions are not retained (no
snapshot-at-epoch reads on arrays); the KV layer keeps epoch history
instead.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.daos.vos.payload import Payload, ZeroPayload, as_payload, concat_payloads

#: one piece of a range cover: (start, nbytes, extent, or None for a hole)
Segment = Tuple[int, int, Optional["Extent"]]


@dataclass(slots=True)
class Extent:
    """A contiguous written region [offset, offset + length)."""

    offset: int
    payload: Payload
    epoch: int

    @property
    def length(self) -> int:
        return self.payload.nbytes

    @property
    def end(self) -> int:
        return self.offset + self.payload.nbytes


class ExtentTree:
    """Non-overlapping extents ordered by offset."""

    __slots__ = ("_starts", "_extents", "used_bytes")

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._extents: List[Extent] = []
        #: bytes held, kept current by every mutation
        self.used_bytes = 0

    def __len__(self) -> int:
        return len(self._extents)

    def __iter__(self) -> Iterator[Extent]:
        return iter(self._extents)

    @property
    def size(self) -> int:
        """Highest written offset + 1 (i.e. the array's apparent size)."""
        return self._extents[-1].end if self._extents else 0

    @property
    def max_epoch(self) -> int:
        """Newest epoch among stored extents (0 when empty)."""
        return max((e.epoch for e in self._extents), default=0)

    def spans(self) -> List[Tuple[int, int]]:
        """[(offset, nbytes), ...] of every extent, in offset order."""
        return [(e.offset, e.length) for e in self._extents]

    def _first_overlapping(self, offset: int) -> int:
        """Index of the first extent ending after ``offset``."""
        idx = bisect_left(self._starts, offset)
        # the previous extent may straddle ``offset``
        if idx > 0 and self._extents[idx - 1].end > offset:
            idx -= 1
        return idx

    # ------------------------------------------------------------- write
    def write(self, offset: int, data, epoch: int = 0,
              merge: bool = False) -> int:
        """Overlay ``data`` at ``offset``; returns bytes newly consumed
        (for capacity accounting — overwritten bytes are reclaimed).
        An empty payload stores nothing and returns 0.

        With ``merge=True`` byte-adjacent neighbours written at the same
        ``epoch`` are coalesced into one extent — what turns a stream of
        small dirty writes into the large contiguous runs the
        write-behind flusher issues. Payloads stay lazy either way.
        """
        payload = as_payload(data)
        nbytes = payload.nbytes
        if nbytes == 0:
            return 0
        if offset < 0:
            raise ValueError("negative offset")
        freed = self._punch_range(offset, offset + nbytes)
        idx = bisect_left(self._starts, offset)
        if merge:
            extents = self._extents
            if idx < len(extents) and extents[idx].offset == offset + nbytes \
                    and extents[idx].epoch == epoch:
                payload = concat_payloads([payload, extents[idx].payload])
                del self._starts[idx], extents[idx]
            if idx > 0 and extents[idx - 1].end == offset \
                    and extents[idx - 1].epoch == epoch:
                idx -= 1
                offset = extents[idx].offset
                payload = concat_payloads([extents[idx].payload, payload])
                del self._starts[idx], extents[idx]
        self._starts.insert(idx, offset)
        self._extents.insert(idx, Extent(offset, payload, epoch))
        self.used_bytes += nbytes
        return nbytes - freed

    def write_rebuild(self, offset: int, data, epoch: int) -> int:
        """Overlay ``data`` at its *original* ``epoch``, never clobbering
        bytes already held at an equal-or-newer epoch.

        The rebuild engine replays extents copied from surviving replicas
        onto a returning shard; a foreground write that landed on the
        shard while the resync was in flight carries a newer epoch and
        must survive the replay. Returns bytes newly consumed.
        """
        payload = as_payload(data)
        # The cover is taken before anything mutates; adjacent stale
        # segments and holes go down as one write.
        runs: List[List[int]] = []
        for start, nbytes, ext in self.lookup(offset, payload.nbytes):
            if ext is None or ext.epoch < epoch:
                if runs and runs[-1][1] == start:
                    runs[-1][1] = start + nbytes
                else:
                    runs.append([start, start + nbytes])
        return sum(
            self.write(lo, payload.slice(lo - offset, hi - offset), epoch)
            for lo, hi in runs
        )

    def punch(self, offset: int, length: int) -> int:
        """Remove [offset, offset+length); returns bytes freed."""
        if length <= 0:
            return 0
        return self._punch_range(offset, offset + length)

    def _punch_range(self, start: int, stop: int) -> int:
        """Trim/split existing extents overlapping [start, stop)."""
        freed = 0
        idx = self._first_overlapping(start)
        extents = self._extents
        while idx < len(extents):
            ext = extents[idx]
            if ext.offset >= stop:
                break
            freed += min(ext.end, stop) - max(ext.offset, start)
            keep = []
            if ext.offset < start:
                keep.append(Extent(
                    ext.offset, ext.payload.slice(0, start - ext.offset),
                    ext.epoch,
                ))
            if ext.end > stop:
                keep.append(Extent(
                    stop, ext.payload.slice(stop - ext.offset, ext.length),
                    ext.epoch,
                ))
            extents[idx:idx + 1] = keep
            self._starts[idx:idx + 1] = [piece.offset for piece in keep]
            idx += len(keep)
        self.used_bytes -= freed
        return freed

    def remove(self, ext: Extent) -> bool:
        """Drop one extent object (LRU eviction); False if not held."""
        idx = bisect_left(self._starts, ext.offset)
        if idx == len(self._extents) or self._extents[idx] is not ext:
            return False
        del self._starts[idx], self._extents[idx]
        self.used_bytes -= ext.length
        return True

    def pop_first_run(self, max_bytes: int) -> Optional[Tuple[int, Payload]]:
        """Pop the lowest-offset contiguous run of extents (flush unit),
        capped at ``max_bytes``. Returns (offset, payload) or None."""
        if not self._extents:
            return None
        start = cursor = self._starts[0]
        parts: List[Payload] = []
        while self._extents and cursor - start < max_bytes:
            ext = self._extents[0]
            if ext.offset != cursor:
                break
            room = max_bytes - (cursor - start)
            if ext.length > room:
                self._starts[0] = cursor + room
                self._extents[0] = Extent(
                    cursor + room, ext.payload.slice(room, ext.length),
                    ext.epoch,
                )
                parts.append(ext.payload.slice(0, room))
            else:
                del self._starts[0], self._extents[0]
                parts.append(ext.payload)
            cursor += parts[-1].nbytes
        self.used_bytes -= cursor - start
        return start, concat_payloads(parts)

    def clear(self) -> int:
        """Drop everything; returns bytes dropped."""
        dropped = self.used_bytes
        self._starts.clear()
        self._extents.clear()
        self.used_bytes = 0
        return dropped

    # ------------------------------------------------------------- read
    def lookup(self, offset: int, length: int) -> List[Segment]:
        """Cover [offset, offset+length) with stored segments and holes.

        Returns ``[(seg_start, seg_len, extent_or_None), ...]`` in offset
        order; ``None`` marks a hole. A segment's data is
        ``ext.payload.slice(seg_start - ext.offset, ... + seg_len)``.
        """
        out: List[Segment] = []
        if length <= 0:
            return out
        cursor = offset
        stop = offset + length
        extents = self._extents
        for idx in range(self._first_overlapping(offset), len(extents)):
            ext = extents[idx]
            if ext.offset >= stop:
                break
            if ext.offset > cursor:
                out.append((cursor, ext.offset - cursor, None))
                cursor = ext.offset
            seg_stop = min(ext.end, stop)
            out.append((cursor, seg_stop - cursor, ext))
            cursor = seg_stop
        if cursor < stop:
            out.append((cursor, stop - cursor, None))
        return out

    def read(self, offset: int, length: int) -> Payload:
        """Payload for [offset, offset+length); holes read as zeros.

        The caller decides how to treat reads past the apparent size
        (the POSIX layers clamp to the file size held in the inode).
        """
        if length <= 0:
            return as_payload(b"")
        parts: List[Payload] = []
        for start, nbytes, ext in self.lookup(offset, length):
            if ext is None:
                parts.append(ZeroPayload(nbytes))
            else:
                rel = start - ext.offset
                parts.append(ext.payload.slice(rel, rel + nbytes))
        return concat_payloads(parts)

    def covered_at(self, offset: int, length: int, epoch: int) -> bool:
        """True iff every byte of [offset, offset+length) is held at an
        epoch >= ``epoch`` — the rebuild engine's dest-side filter that
        keeps the scan/migrate converge loop from re-copying data a
        previous round (or a fenced foreground write) already landed."""
        return all(
            ext is not None and ext.epoch >= epoch
            for _start, _nbytes, ext in self.lookup(offset, length)
        )

    # ------------------------------------------------------------- checks
    def check_invariants(self) -> None:
        prev_end = -1
        for start, ext in zip(self._starts, self._extents):
            assert start == ext.offset
            assert ext.length > 0
            assert ext.offset >= 0
            assert ext.offset >= prev_end, "extents overlap"
            prev_end = ext.end
        assert len(self._starts) == len(self._extents)
        assert self.used_bytes == sum(e.length for e in self._extents)
