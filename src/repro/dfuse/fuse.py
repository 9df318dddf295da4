"""The DFuse user-space filesystem daemon model.

Every VFS call pays ``syscall_cost`` (user→kernel→fuse-daemon round
trip); data calls are additionally segmented into FUSE requests at
file-offset-aligned ``max_transfer`` windows — dfuse aligns its I/O
descriptors to the DFS chunk layout, so an *unaligned* application
buffer touches one more window than an aligned one and pays one more
round trip (this, compounded by the HDF5 sieve behaviour, is mechanism
#6 of DESIGN.md §3). Requests of one call are serviced sequentially by
the daemon, as the kernel FUSE writeback path does with caching off.
"""

from __future__ import annotations

from typing import Generator, Iterable, List, Tuple

from typing import Optional

from repro.cache.attrs import TtlCache
from repro.cache.config import CacheConfig
from repro.cache.pages import PageCache
from repro.daos.vos.payload import as_payload, concat_payloads
from repro.dfs.dfs import Dfs
from repro.dfs.file import DfsFile
from repro.errors import DaosError, FsError, fs_error_from_daos
from repro.obs.tracer import NOOP_SPAN
from repro.posix.vfs import (
    FileHandle,
    FileSystem,
    StatResult,
    normalize,
    validate_flags,
)
from repro.units import MiB, split_aligned


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

    def __init__(
        self,
        dfs: Dfs,
        syscall_cost: float = 3.5e-6,
        request_cost: float = 9e-6,
        max_transfer: int = MiB,
        cache: Optional[CacheConfig] = None,
    ):
        self.dfs = dfs
        #: user↔kernel transition + VFS dispatch per system call
        self.syscall_cost = syscall_cost
        #: kernel→daemon→DFS dispatch per FUSE data request
        self.request_cost = request_cost
        #: FUSE max_read/max_write (dfuse default: 1 MiB)
        self.max_transfer = max_transfer
        self.blksize = max_transfer
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
            TtlCache(sim, cfg.attr_ttl, "cache.attr", labels=node_labels)
            if cfg is not None else None
        )

    @staticmethod
    def _key(path: str) -> str:
        return "/" + "/".join(normalize(path))

    def _invalidate_data(self, key: str) -> None:
        """Drop cached pages + attrs for a path (unlink/rename/truncate)."""
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

    @staticmethod
    def _translate(err: DaosError, path: str) -> FsError:
        return fs_error_from_daos(err, path)

    # ------------------------------------------------------------- FileSystem API
    def open(self, path: str, flags: Iterable[str] = ("r",)) -> Generator:
        flag_set = validate_flags(flags)
        yield self.syscall_cost
        try:
            handle = yield from self.dfs.open_file(
                path,
                create="creat" in flag_set,
                excl="excl" in flag_set,
                trunc="trunc" in flag_set,
            )
        except DaosError as err:
            raise self._translate(err, path) from err
        return DFuseFile(self, handle)

    def mkdir(self, path: str) -> Generator:
        yield self.syscall_cost
        try:
            yield from self.dfs.mkdir(path)
        except DaosError as err:
            raise self._translate(err, path) from err
        return None

    def readdir(self, path: str) -> Generator:
        yield self.syscall_cost
        try:
            names = yield from self.dfs.readdir(path)
        except DaosError as err:
            raise self._translate(err, path) from err
        return names

    def stat(self, path: str) -> Generator:
        yield self.syscall_cost
        if self._attrs is not None:
            key = self._key(path)
            cached = self._attrs.get(key)
            if cached is not None:
                return cached
        try:
            entry, size = yield from self.dfs.stat(path)
        except DaosError as err:
            raise self._translate(err, path) from err
        result = StatResult(
            is_dir=entry.is_dir,
            size=size,
            mode=entry.mode,
            blksize=self.blksize,
        )
        if self._attrs is not None:
            self._attrs.put(self._key(path), result)
        return result

    def unlink(self, path: str) -> Generator:
        yield self.syscall_cost
        try:
            yield from self.dfs.unlink(path)
        except DaosError as err:
            raise self._translate(err, path) from err
        self._invalidate_data(self._key(path))
        return None

    def rmdir(self, path: str) -> Generator:
        yield self.syscall_cost
        try:
            yield from self.dfs.rmdir(path)
        except DaosError as err:
            raise self._translate(err, path) from err
        return None

    def rename(self, old: str, new: str) -> Generator:
        yield self.syscall_cost
        try:
            yield from self.dfs.rename(old, new)
        except DaosError as err:
            raise self._translate(err, new) from err
        self._invalidate_data(self._key(old))
        self._invalidate_data(self._key(new))
        return None


class DFuseFile(FileHandle):
    """An open fd on a DFuse mount."""

    def __init__(self, mount: DFuseMount, inner: DfsFile):
        self.mount = mount
        self.inner = inner

    def _span(self, name: str, **attrs):
        client = self.mount.dfs.client
        tracer = client.sim.tracer
        if tracer is None:
            return NOOP_SPAN
        return tracer.span(
            name, "dfuse", node=client.node.name, attrs=attrs or None
        )

    def _cache_span(self, name: str, **attrs):
        client = self.mount.dfs.client
        tracer = client.sim.tracer
        if tracer is None:
            return NOOP_SPAN
        return tracer.span(
            name, "cache", node=client.node.name, attrs=attrs or None
        )

    def pwrite(self, offset: int, data) -> Generator:
        payload = as_payload(data)
        if self.mount.cache is not None and self.mount.cache.writeback:
            return (yield from self._pwrite_writeback(offset, payload))
        with self._span(
            "dfuse.pwrite", offset=offset, nbytes=payload.nbytes
        ):
            yield self.mount.syscall_cost
            written = 0
            for window_offset, take in self.mount._windows(
                offset, payload.nbytes
            ):
                yield self.mount.request_cost
                fragment = payload.slice(written, written + take)
                written += (
                    yield from self.inner.write(window_offset, fragment)
                )
        if self.mount.page is not None:
            # readonly mode: write-through, drop overlapped cached pages
            self.mount.page.invalidate_range(
                self.inner.path, offset, payload.nbytes
            )
        if self.mount._attrs is not None:
            self.mount._attrs.invalidate(self.inner.path)
        return written

    def _pwrite_writeback(self, offset: int, payload) -> Generator:
        """Writeback: one syscall, no per-window FUSE requests — the
        whole buffer lands in the DFS write-behind layer, which charges
        the memcpy and coalesces (the kernel writeback-cache path)."""
        with self._span(
            "dfuse.pwrite", offset=offset, nbytes=payload.nbytes,
            writeback=True,
        ):
            yield self.mount.syscall_cost
            written = yield from self.inner.write(offset, payload)
        if self.mount.page is not None:
            self.mount.page.invalidate_range(
                self.inner.path, offset, payload.nbytes
            )
        if self.mount._attrs is not None:
            self.mount._attrs.invalidate(self.inner.path)
        return written

    def pread(self, offset: int, length: int) -> Generator:
        if self.mount.page is not None:
            return (yield from self._pread_cached(offset, length))
        with self._span("dfuse.pread", offset=offset, nbytes=length):
            yield self.mount.syscall_cost
            parts = []
            got = 0
            for window_offset, take in self.mount._windows(offset, length):
                yield self.mount.request_cost
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
        with self._span("dfuse.pread", offset=offset, nbytes=length):
            yield self.mount.syscall_cost
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
                    yield self.mount.request_cost
                    part = yield from self.inner.read(window_offset, take)
                    if part.nbytes:
                        parts.append(part)
                        page.insert(key, epoch, window_offset, part)
                    if part.nbytes < take:  # EOF inside this window
                        eof = True
                        break
            if copy_bytes:
                with self._cache_span("cache.page.copy", nbytes=copy_bytes):
                    yield self.mount.cache.copy_cost(copy_bytes)
        return concat_payloads(parts)

    def fsync(self) -> Generator:
        yield self.mount.syscall_cost
        yield from self.inner.sync()
        return None

    def truncate(self, size: int) -> Generator:
        yield self.mount.syscall_cost
        yield from self.inner.truncate(size)
        self.mount._invalidate_data(self.inner.path)
        return None

    def size(self) -> Generator:
        yield self.mount.syscall_cost
        return (yield from self.inner.get_size())

    def close(self) -> Generator:
        yield self.mount.syscall_cost
        if self.mount.cache is not None:
            # open-to-close consistency: commit write-behind data now;
            # inner.close() below surfaces the typed error if it failed
            yield from self.inner.flush()
            if self.mount._attrs is not None:
                self.mount._attrs.invalidate(self.inner.path)
        self.inner.close()
        return None
