"""The DFuse user-space filesystem daemon model.

Every VFS call pays ``SYSCALL_COST`` (user→kernel→fuse-daemon round
trip); data calls are additionally segmented into FUSE requests at
file-offset-aligned ``max_transfer`` windows — dfuse aligns its I/O
descriptors to the DFS chunk layout, so an *unaligned* application
buffer touches one more window than an aligned one and pays one more
round trip (this, compounded by the HDF5 sieve behaviour, is mechanism
#6 of DESIGN.md §3). Requests of one call are serviced sequentially by
the daemon, as the kernel FUSE writeback path does with caching off.
"""

from __future__ import annotations

from typing import Generator, Iterable, List, Optional, Tuple

from repro.cache.attrs import TtlCache
from repro.cache.config import ATTR_TTL, CacheConfig
from repro.cache.pages import PageCache
from repro.daos.vos.payload import as_payload, concat_payloads
from repro.dfs.dfs import Dfs
from repro.dfs.file import DfsFile
from repro.errors import DaosError, fs_error_from_daos
from repro.obs.tracer import span_of
from repro.posix.vfs import (
    FileHandle,
    FileSystem,
    StatResult,
    normalize,
    validate_flags,
)
from repro.units import MiB, split_aligned

#: user↔kernel transition + VFS dispatch per system call
SYSCALL_COST = 3.5e-6
#: kernel→daemon→DFS dispatch per FUSE data request
REQUEST_COST = 9e-6


class DFuseMount(FileSystem):
    """A DFuse mountpoint exposing a DFS container as a POSIX filesystem.

    With a :class:`~repro.cache.config.CacheConfig` attached (modes
    ``readonly``/``writeback``, like ``dfuse --enable-caching``), the
    mount grows a data page cache and an attribute TTL cache; writeback
    additionally skips the per-window FUSE request segmentation on
    writes, handing whole buffers to the DFS write-behind layer. The
    default ``none`` mode constructs neither and every path is
    byte-identical to the uncached build.
    """

    #: FUSE max_read/max_write (dfuse default: 1 MiB)
    max_transfer = MiB
    blksize = max_transfer

    def __init__(self, dfs: Dfs, cache: Optional[CacheConfig] = None):
        self.dfs = dfs
        cfg = cache if cache is not None and cache.enabled else None
        if cfg is not None and not cfg.capacity:
            cfg = cfg.resolve(dfs.client.node.spec)
        self.cache = cfg
        sim = dfs.client.sim
        node_labels = {"node": dfs.client.node.name}
        self.page: Optional[PageCache] = (
            PageCache(cfg.capacity, sim, labels=node_labels)
            if cfg is not None else None
        )
        self._attrs: Optional[TtlCache] = (
            TtlCache(sim, ATTR_TTL, "cache.attr", labels=node_labels)
            if cfg is not None else None
        )

    @staticmethod
    def _key(path: str) -> str:
        return "/" + "/".join(normalize(path))

    def _invalidate_data(self, key: str) -> None:
        """Drop cached pages + attrs for a path (unlink/truncate)."""
        if self.page is not None:
            self.page.invalidate_file(key)
        if self._attrs is not None:
            self._attrs.invalidate(key)

    # ------------------------------------------------------------- helpers
    def _windows(self, offset: int, length: int) -> List[Tuple[int, int]]:
        """Split [offset, offset+length) at aligned max_transfer windows."""
        size = self.max_transfer
        return [
            (window * size + within, take)
            for window, within, take in split_aligned(offset, length, size)
        ]

    def _syscall(self, path: str, op: Generator) -> Generator:
        """Charge one system call, run the DFS operation ``op`` and
        translate its ``DaosError`` into the ``FsError`` for ``path``."""
        yield SYSCALL_COST
        try:
            return (yield from op)
        except DaosError as err:
            raise fs_error_from_daos(err, path) from err

    # ------------------------------------------------------------- FileSystem API
    def open(self, path: str, flags: Iterable[str] = ("r",)) -> Generator:
        flag_set = validate_flags(flags)
        handle = yield from self._syscall(path, self.dfs.open_file(
            path,
            create="creat" in flag_set,
            excl="excl" in flag_set,
            trunc="trunc" in flag_set,
        ))
        return DFuseFile(self, handle)

    def mkdir(self, path: str) -> Generator:
        yield from self._syscall(path, self.dfs.mkdir(path))

    def stat(self, path: str) -> Generator:
        return self._syscall(path, self._stat(path))

    def _stat(self, path: str) -> Generator:
        if self._attrs is not None:
            key = self._key(path)
            cached = self._attrs.get(key)
            if cached is not None:
                return cached
        entry, size = yield from self.dfs.stat(path)
        result = StatResult(
            is_dir=entry.is_dir,
            size=size,
            mode=entry.mode,
            blksize=self.blksize,
        )
        if self._attrs is not None:
            self._attrs.put(key, result)
        return result

    def unlink(self, path: str) -> Generator:
        yield from self._syscall(path, self.dfs.unlink(path))
        self._invalidate_data(self._key(path))


class DFuseFile(FileHandle):
    """An open fd on a DFuse mount."""

    def __init__(self, mount: DFuseMount, inner: DfsFile):
        self.mount = mount
        self.inner = inner
        client = mount.dfs.client
        self._sim = client.sim
        self._node = client.node.name

    def pwrite(self, offset: int, data) -> Generator:
        payload = as_payload(data)
        mount = self.mount
        if mount.cache is not None and mount.cache.writeback:
            # one syscall, no per-window FUSE requests — the whole buffer
            # lands in the DFS write-behind layer, which charges the memcpy
            # and coalesces (the kernel writeback-cache path)
            with span_of(
                self._sim, "dfuse.pwrite", "dfuse", self._node,
                offset=offset, nbytes=payload.nbytes, writeback=True,
            ):
                yield SYSCALL_COST
                written = yield from self.inner.write(offset, payload)
        else:
            with span_of(
                self._sim, "dfuse.pwrite", "dfuse", self._node,
                offset=offset, nbytes=payload.nbytes,
            ):
                yield SYSCALL_COST
                written = 0
                for window_offset, take in mount._windows(
                    offset, payload.nbytes
                ):
                    yield REQUEST_COST
                    fragment = payload.slice(written, written + take)
                    written += (
                        yield from self.inner.write(window_offset, fragment)
                    )
        if mount.page is not None:
            # readonly mode: write-through, drop overlapped cached pages
            mount.page.invalidate_range(
                self.inner.path, offset, payload.nbytes
            )
        if mount._attrs is not None:
            mount._attrs.invalidate(self.inner.path)
        return written

    def pread(self, offset: int, length: int) -> Generator:
        if self.mount.page is not None:
            return (yield from self._pread_cached(offset, length))
        with span_of(self._sim, "dfuse.pread", "dfuse", self._node,
                     offset=offset, nbytes=length):
            yield SYSCALL_COST
            parts = []
            got = 0
            for window_offset, take in self.mount._windows(offset, length):
                yield REQUEST_COST
                part = yield from self.inner.read(window_offset, take)
                parts.append(part)
                got += part.nbytes
                if part.nbytes < take:  # EOF inside this window
                    break
        return concat_payloads(parts)

    def _pread_cached(self, offset: int, length: int) -> Generator:
        """Serve from the page cache; read holes through and fill them."""
        page = self.mount.page
        key = self.inner.path
        epoch = self.inner.shared.epoch
        with span_of(self._sim, "dfuse.pread", "dfuse", self._node,
                     offset=offset, nbytes=length):
            yield SYSCALL_COST
            parts = []
            copy_bytes = 0
            eof = False
            for seg_start, seg_len, cached in page.lookup(
                key, epoch, offset, length
            ):
                if eof:
                    break
                if cached is not None:
                    parts.append(cached)
                    copy_bytes += seg_len
                    continue
                for window_offset, take in self.mount._windows(
                    seg_start, seg_len
                ):
                    yield REQUEST_COST
                    part = yield from self.inner.read(window_offset, take)
                    if part.nbytes:
                        parts.append(part)
                        page.insert(key, epoch, window_offset, part)
                    if part.nbytes < take:  # EOF inside this window
                        eof = True
                        break
            if copy_bytes:
                with span_of(self._sim, "cache.page.copy", "cache",
                             self._node, nbytes=copy_bytes):
                    yield self.mount.cache.copy_cost(copy_bytes)
        return concat_payloads(parts)

    def fsync(self) -> Generator:
        yield SYSCALL_COST
        yield from self.inner.sync()
        return None

    def close(self) -> Generator:
        yield SYSCALL_COST
        if self.mount.cache is not None:
            # open-to-close consistency: commit write-behind data now;
            # inner.close() below surfaces the typed error if it failed
            yield from self.inner.flush()
            if self.mount._attrs is not None:
                self.mount._attrs.invalidate(self.inner.path)
        self.inner.close()
        return None
