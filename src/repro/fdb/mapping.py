"""Field-object mappings: where a field's bytes live.

The follow-up papers' central question is how to map *one field* (64 KiB
to 16 MiB of packed grid data) onto the storage interfaces DAOS offers:

- :class:`ArrayPerField` — one ``DaosArray`` object per field (the
  native object path; chunks stripe across targets, so large fields get
  multi-target bandwidth at the cost of per-object setup).
- :class:`KvValueField` — the field is a single KV value under its
  canonical key (one RPC per field; value bytes stream to the key's one
  home target — unbeatable small, single-target-bound large).
- :class:`FilePerField` — one file per field in a directory tree (the
  POSIX-style layout FDB used before DAOS; pays namespace lookups and
  inode metadata on every field), on a :class:`DfsNamespace` or, for the
  paper's parallel-filesystem contrast, a :class:`LustreNamespace`.

Each mapping holds the handles it uses. Every one offers the same task
helpers — ``prepare(keys)``, ``write(key, payload)``, ``read(key,
location, nbytes)`` — plus ``close()`` and a ``name`` used as the
``backend=`` metric label.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence

from repro.daos.api import DaosArray, DaosKV, ObjId
from repro.errors import DerExist, FsError
from repro.fdb.schema import FieldKey

#: root directories of the file-per-field namespace layouts
DATA_ROOT = "/fields"
INDEX_ROOT = "/index"
LANDMARK_ROOT = "/landmarks"


def field_dir(key: FieldKey, root: str = DATA_ROOT) -> str:
    """Directory a field's file lives in (two levels: param, level)."""
    return f"{root}/{key.param}/{key.level:04d}"


def field_file(key: FieldKey, root: str = DATA_ROOT) -> str:
    """Full file path: dirs by param/level, leaf name step.member.date."""
    return f"{field_dir(key, root)}/{key.step:03d}.{key.member:03d}.{key.date}"


def dirs_for(keys: Sequence[FieldKey], root: str) -> List[str]:
    """Every directory the keys need, parents before children."""
    wanted = {root}
    for key in keys:
        wanted.add(f"{root}/{key.param}")
        wanted.add(field_dir(key, root))
    return sorted(wanted)


def no_prepare(self, keys: Sequence[FieldKey]) -> Generator:
    """Task helper: nothing to create before a burst (no namespace)."""
    return None
    yield  # pragma: no cover - generator marker


class DfsNamespace:
    """Directories and whole-file I/O on a mounted DFS."""

    name = "dfs"

    def __init__(self, dfs):
        self.dfs = dfs
        #: directories already created, so a prepare pass never
        #: re-issues mkdir RPCs
        self.made: set = set()

    def mkdirs(self, dirs: Sequence[str]) -> Generator:
        for path in dirs:
            if path in self.made:
                continue
            try:
                yield from self.dfs.mkdir(path)
            except DerExist:
                pass
            self.made.add(path)
        return None

    def readdir(self, path: str) -> Generator:
        names = yield from self.dfs.readdir(path)
        return names

    def write(self, path: str, payload,
              chunk_size: Optional[int] = None) -> Generator:
        handle = yield from self.dfs.open_file(
            path, create=True, chunk_size=chunk_size,
        )
        try:
            yield from handle.write(0, payload)
        finally:
            handle.close()
        return None

    def read(self, path: str, nbytes: int) -> Generator:
        handle = yield from self.dfs.open_file(path)
        try:
            payload = yield from handle.read(0, nbytes)
        finally:
            handle.close()
        return payload

    def close(self) -> None:
        """Unmount; idempotent, so a mapping and an index sharing the
        namespace may both close it."""
        self.dfs.umount()


class LustreNamespace:
    """The same namespace calls on a Lustre client mount."""

    name = "lustre"

    def __init__(self, mount):
        self.mount = mount
        self.made: set = set()

    def mkdirs(self, dirs: Sequence[str]) -> Generator:
        for path in dirs:
            if path in self.made:
                continue
            try:
                yield from self.mount.mkdir(path)
            except FsError as exc:
                if exc.errno_name != "EEXIST":
                    raise
            self.made.add(path)
        return None

    def readdir(self, path: str) -> Generator:
        names = yield from self.mount.readdir(path)
        return names

    def write(self, path: str, payload,
              chunk_size: Optional[int] = None) -> Generator:
        """Create and write ``path``; striping is the MDS default, so
        ``chunk_size`` is not used."""
        handle = yield from self.mount.open(path, flags=("w", "creat"))
        try:
            yield from handle.pwrite(0, payload)
        finally:
            yield from handle.close()
        return None

    def read(self, path: str, nbytes: int) -> Generator:
        handle = yield from self.mount.open(path)
        try:
            payload = yield from handle.pread(0, nbytes)
        finally:
            yield from handle.close()
        return payload

    def close(self) -> None:
        """Nothing to release: the mount belongs to the cluster."""


class ArrayPerField:
    """One DaosArray object per field (1-byte cells, chunked dkeys)."""

    name = "array"
    prepare = no_prepare

    def __init__(self, cont, oclass, chunk_bytes: int):
        self.cont = cont
        self.oclass = oclass
        self.chunk_bytes = chunk_bytes

    def write(self, key, payload) -> Generator:
        array = yield from DaosArray.create(
            self.cont, cell_size=1, chunk_cells=self.chunk_bytes,
            oclass=self.oclass,
        )
        try:
            yield from array.write(0, payload)
        finally:
            array.close()
        return [array.obj.oid.hi, array.obj.oid.lo]

    def read(self, key, location, nbytes) -> Generator:
        hi, lo = location
        array = yield from DaosArray.open(self.cont, ObjId(hi, lo))
        try:
            payload = yield from array.read(0, nbytes // array.cell_size)
        finally:
            array.close()
        return payload

    def close(self) -> None:
        """Nothing to release: each array is closed after its write."""


class KvValueField:
    """The field is one KV value; its canonical key is the dkey."""

    name = "kv"
    prepare = no_prepare

    def __init__(self, kv: DaosKV):
        self.kv = kv

    def write(self, key, payload) -> Generator:
        yield from self.kv.put(
            key.canonical, payload, value_nbytes=payload.nbytes
        )
        return None  # data lives under the canonical key itself

    def read(self, key, location, nbytes) -> Generator:
        payload = yield from self.kv.get(key.canonical, value_nbytes=nbytes)
        return payload

    def close(self) -> None:
        self.kv.close()


class FilePerField:
    """One file per field under ``/fields/param/level/``."""

    def __init__(self, namespace, chunk_bytes: Optional[int] = None):
        self.namespace = namespace
        self.name = namespace.name
        self.chunk_bytes = chunk_bytes

    def prepare(self, keys) -> Generator:
        yield from self.namespace.mkdirs(dirs_for(keys, DATA_ROOT))
        return None

    def write(self, key, payload) -> Generator:
        path = field_file(key)
        yield from self.namespace.write(
            path, payload, chunk_size=self.chunk_bytes
        )
        return path

    def read(self, key, location, nbytes) -> Generator:
        payload = yield from self.namespace.read(location, nbytes)
        return payload

    def close(self) -> None:
        self.namespace.close()
