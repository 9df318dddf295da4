"""The DFS namespace implementation.

``Dfs.mount`` formats the container on first use (superblock + root
directory, both at reserved OIDs) and returns a mounted filesystem
object whose operations are task helpers. Directory entries are dkeys of
the directory's KV object; lookups walk the path one component at a
time, exactly like ``dfs_lookup`` (each hop is one engine RPC to the
entry's home target).
"""

from __future__ import annotations

from typing import Generator, List, Optional, Tuple

from repro.cache.attrs import TtlCache
from repro.cache.config import DENTRY_TTL, CacheConfig
from repro.daos.client import ContainerHandle
from repro.daos.object import ObjectHandle
from repro.daos.oclass import S1, oclass_by_name
from repro.dfs.file import DfsFile, SharedFileState
from repro.dfs.layout import (
    DFS_MAGIC,
    ENTRY_AKEY,
    RESERVED_OIDS,
    SB_AKEY,
    SB_DKEY,
    InodeEntry,
    root_oid,
    superblock_oid,
)
from repro.errors import (
    DerExist,
    DerIsDir,
    DerNonexist,
    DerNotDir,
)
from repro.posix.vfs import normalize
from repro.units import MiB


class Dfs:
    """A mounted DAOS File System."""

    def __init__(self, cont: ContainerHandle,
                 cache: Optional[CacheConfig] = None):
        self.cont = cont
        self.client = cont.client
        self._sb_obj: Optional[ObjectHandle] = None
        self._root: Optional[ObjectHandle] = None
        self.default_chunk = cont.chunk_size
        self.default_oclass = cont.props.get("oclass", "SX")
        #: caching tier config; None (the default ``none`` mode) keeps
        #: every path below byte-identical to the uncached build
        self.cache: Optional[CacheConfig] = (
            cache if cache is not None and cache.enabled else None
        )
        #: (oid_hi, oid_lo) -> SharedFileState; always on — it is the
        #: cross-handle size-staleness fix, not a cache feature
        self._file_states: dict = {}
        self._dentry: Optional[TtlCache] = (
            TtlCache(self.client.sim, DENTRY_TTL, "cache.dentry",
                     labels={"node": self.client.node.name})
            if self.cache is not None else None
        )

    def file_state(self, entry: InodeEntry) -> SharedFileState:
        """Shared per-file state for every handle on this mount."""
        key = (entry.oid_hi, entry.oid_lo)
        state = self._file_states.get(key)
        if state is None:
            state = self._file_states[key] = SharedFileState()
        return state

    @staticmethod
    def _canon(parts: List[str]) -> str:
        return "/" + "/".join(parts)

    # ------------------------------------------------------------- mount
    @classmethod
    def mount(cls, cont: ContainerHandle,
              cache: Optional[CacheConfig] = None) -> Generator:
        """Task helper: mount (formatting on first use)."""
        dfs = cls(cont, cache=cache)
        dfs._sb_obj = cont.open_object(superblock_oid())
        dfs._root = cont.open_object(root_oid())
        try:
            record = yield from dfs._sb_obj.get(SB_DKEY, SB_AKEY)
            if record.get("magic") != DFS_MAGIC:
                raise DerNonexist("bad superblock magic")
        except DerNonexist:
            yield from dfs._format()
        return dfs

    def _format(self) -> Generator:
        # Reserve low OIDs so allocation never collides with metadata.
        yield from self.client.rsvc.invoke(
            ("cas", f"oidnext:{self.cont.uuid}", None, RESERVED_OIDS)
        )
        yield from self._sb_obj.put(
            SB_DKEY,
            SB_AKEY,
            {
                "magic": DFS_MAGIC,
                "chunk_size": self.default_chunk,
                "oclass": self.default_oclass,
            },
        )
        # Root directory exists implicitly: its object is created on
        # first entry insertion; nothing else to persist.
        return None

    def umount(self) -> None:
        if self._sb_obj is not None:
            self._sb_obj.close()
        if self._root is not None:
            self._root.close()

    # ------------------------------------------------------------- lookup
    def _lookup_dir(self, parts: List[str]) -> Generator:
        """Walk to the directory at ``parts``; returns its object handle."""
        current = self._root
        walked = []
        for name in parts:
            record = yield from self._entry_get(current, name)
            if record is None:
                raise DerNonexist("/" + "/".join(walked + [name]))
            entry = InodeEntry.from_record(record)
            if not entry.is_dir:
                raise DerNotDir("/" + "/".join(walked + [name]))
            if current is not self._root:
                current.close()
            current = self.cont.open_object(entry.oid)
            walked.append(name)
        return current

    def _split(self, path: str) -> Tuple[List[str], str]:
        parts = normalize(path)
        if not parts:
            raise DerNonexist("path resolves to the root directory")
        return parts[:-1], parts[-1]

    def _entry_get(self, dir_obj: ObjectHandle, name: str) -> Generator:
        try:
            record = yield from dir_obj.get(name.encode("utf-8"), ENTRY_AKEY)
        except DerNonexist:
            return None
        return record

    def _release_dir(self, dir_obj: ObjectHandle) -> None:
        if dir_obj is not self._root:
            dir_obj.close()

    def lookup(self, path: str) -> Generator:
        """Task helper: path → :class:`InodeEntry` (raises if missing).

        With the caching tier enabled, a fresh dentry-cache entry skips
        the per-component walk entirely (dfuse ``--dentry-time``)."""
        parts = normalize(path)
        if not parts:
            return InodeEntry(
                "dir", root_oid().hi, root_oid().lo, self.default_chunk, "S1"
            )
        key = self._canon(parts)
        if self._dentry is not None:
            cached = self._dentry.get(key)
            if cached is not None:
                return cached
        dir_obj = yield from self._lookup_dir(parts[:-1])
        try:
            record = yield from self._entry_get(dir_obj, parts[-1])
        finally:
            self._release_dir(dir_obj)
        if record is None:
            raise DerNonexist(path)
        entry = InodeEntry.from_record(record)
        if self._dentry is not None:
            self._dentry.put(key, entry)
        return entry

    # ------------------------------------------------------------- files
    def open_file(
        self,
        path: str,
        create: bool = False,
        excl: bool = False,
        trunc: bool = False,
        chunk_size: Optional[int] = None,
        oclass: Optional[str] = None,
    ) -> Generator:
        """Task helper: open (optionally create/truncate) a regular file."""
        parents, name = self._split(path)
        key = self._canon(parents + [name])
        if self._dentry is not None and not create:
            cached = self._dentry.get(key)
            if cached is not None and not cached.is_dir:
                handle = DfsFile(
                    self, cached, self.cont.open_object(cached.oid), path=key
                )
                if trunc:
                    yield from handle.truncate(0)
                return handle
        dir_obj = yield from self._lookup_dir(parents)
        try:
            record = yield from self._entry_get(dir_obj, name)
            if record is None:
                if not create:
                    raise DerNonexist(path)
                oclass_name = oclass or self.default_oclass
                oid = yield from self.cont.alloc_oid(
                    oclass_by_name(oclass_name)
                )
                entry = InodeEntry(
                    kind="file",
                    oid_hi=oid.hi,
                    oid_lo=oid.lo,
                    chunk_size=chunk_size or self.default_chunk,
                    oclass=oclass_name,
                )
                yield from dir_obj.put(
                    name.encode("utf-8"), ENTRY_AKEY, entry.to_record()
                )
            else:
                entry = InodeEntry.from_record(record)
                if entry.is_dir:
                    raise DerIsDir(path)
                if excl and create:
                    raise DerExist(path)
        finally:
            self._release_dir(dir_obj)
        if self._dentry is not None:
            self._dentry.put(key, entry)
        handle = DfsFile(self, entry, self.cont.open_object(entry.oid),
                         path=key)
        if trunc and record is not None:
            yield from handle.truncate(0)
        return handle

    # ------------------------------------------------------------- directories
    def mkdir(self, path: str) -> Generator:
        """Task helper: create a directory (parents must exist); every
        directory object is class S1, as the root is."""
        parents, name = self._split(path)
        dir_obj = yield from self._lookup_dir(parents)
        try:
            record = yield from self._entry_get(dir_obj, name)
            if record is not None:
                raise DerExist(path)
            oid = yield from self.cont.alloc_oid(S1)
            entry = InodeEntry(
                kind="dir",
                oid_hi=oid.hi,
                oid_lo=oid.lo,
                chunk_size=self.default_chunk,
                oclass=S1.name,
                mode=0o755,
            )
            yield from dir_obj.put(
                name.encode("utf-8"), ENTRY_AKEY, entry.to_record()
            )
        finally:
            self._release_dir(dir_obj)
        if self._dentry is not None:
            self._dentry.put(self._canon(parents + [name]), entry)
        return entry

    def readdir(self, path: str) -> Generator:
        """Task helper: sorted entry names of a directory."""
        parts = normalize(path)
        dir_obj = yield from self._lookup_dir(parts)
        try:
            names = yield from dir_obj.list_dkeys(limit=1 << 20)
        finally:
            self._release_dir(dir_obj)
        return [n.decode("utf-8") for n in names]

    def stat(self, path: str) -> Generator:
        """Task helper: (entry, size) — size queried from the array."""
        entry = yield from self.lookup(path)
        if entry.is_dir:
            return entry, 0
        obj = self.cont.open_object(entry.oid)
        try:
            size = yield from obj.size(chunk_size=entry.chunk_size)
        finally:
            obj.close()
        return entry, size

    def unlink(self, path: str) -> Generator:
        """Task helper: remove a file (punching its object's data)."""
        parents, name = self._split(path)
        dir_obj = yield from self._lookup_dir(parents)
        try:
            record = yield from self._entry_get(dir_obj, name)
            if record is None:
                raise DerNonexist(path)
            entry = InodeEntry.from_record(record)
            if entry.is_dir:
                raise DerIsDir(path)
            yield from dir_obj.punch_dkey(name.encode("utf-8"))
        finally:
            self._release_dir(dir_obj)
        if self._dentry is not None:
            self._dentry.invalidate(self._canon(parents + [name]))
        # a new file at this path gets fresh shared state; surviving
        # handles see the epoch bump and drop their cached size/data
        state = self._file_states.pop((entry.oid_hi, entry.oid_lo), None)
        if state is not None:
            state.epoch += 1
        obj = self.cont.open_object(entry.oid)
        try:
            yield from obj.punch_object()
        finally:
            obj.close()
        return True
