"""Field indexes: how a schema key finds its field.

Two index families, matching the designs the NWP follow-up papers
compare:

- :class:`KvIndex` — entries in one DaosKV object (``e/<canonical>`` →
  location record, ``L/<name>`` → landmark). Lookup is one KV fetch;
  predicate scans ride the ordered paginated prefix enumeration
  (:meth:`repro.daos.kv.DaosKV.scan`).
- :class:`TreeIndex` — the POSIX-era contrast, on a DFS or Lustre
  namespace: a directory tree (``/index/param/level/step.member.date``)
  whose entry files hold the location record as JSON bytes. Lookup is a
  path walk + read; scans are recursive ``readdir`` walks pruned by the
  query's concrete axes — metadata-RPC-heavy in exactly the way that
  pushed FDB off parallel filesystems.

Both offer the task helpers ``prepare(keys)``, ``insert(key, entry)``,
``lookup(key)`` (``DerNonexist`` if absent), ``scan(query)`` (matching
keys in canonical order), ``landmark(name, record)`` and
``get_landmark(name)``, plus ``close()``; the retriever is oblivious to
which one is wired in.
"""

from __future__ import annotations

import json
from typing import Generator, List

from repro.daos.api import DaosKV
from repro.daos.vos.payload import BytesPayload
from repro.errors import DerInval, DerNonexist, FsError
from repro.fdb.mapping import (
    INDEX_ROOT,
    LANDMARK_ROOT,
    dirs_for,
    field_file,
    no_prepare,
)
from repro.fdb.schema import FieldKey

#: KV-index key namespaces (single character so entries sort together)
ENTRY_PREFIX = "e/"
LANDMARK_PREFIX = "L/"

#: upper bound on an entry record's JSON size (reads clamp at EOF)
_RECORD_MAX = 1 << 16


class KvIndex:
    """Entries and landmarks in one DaosKV object."""

    prepare = no_prepare

    def __init__(self, kv: DaosKV):
        self.kv = kv

    def insert(self, key, entry) -> Generator:
        yield from self.kv.put(ENTRY_PREFIX + key.canonical, entry)
        return None

    def lookup(self, key) -> Generator:
        entry = yield from self.kv.get(ENTRY_PREFIX + key.canonical)
        return entry

    def scan(self, query) -> Generator:
        names = yield from self.kv.scan(ENTRY_PREFIX + query.prefix())
        out: List[FieldKey] = []
        for name in names:
            key = FieldKey.from_canonical(name[len(ENTRY_PREFIX):])
            if query.matches(key):
                out.append(key)
        return out

    def landmark(self, name, record) -> Generator:
        yield from self.kv.put(LANDMARK_PREFIX + name, record)
        return None

    def get_landmark(self, name) -> Generator:
        record = yield from self.kv.get(LANDMARK_PREFIX + name)
        return record

    def close(self) -> None:
        self.kv.close()


class TreeIndex:
    """Directory-tree index: one JSON entry file per field."""

    def __init__(self, namespace):
        self.namespace = namespace

    def prepare(self, keys) -> Generator:
        dirs = dirs_for(keys, INDEX_ROOT)
        dirs.append(LANDMARK_ROOT)
        yield from self.namespace.mkdirs(dirs)
        return None

    def insert(self, key, entry) -> Generator:
        yield from self._write(field_file(key, INDEX_ROOT), entry)
        return None

    def lookup(self, key) -> Generator:
        entry = yield from self._read(field_file(key, INDEX_ROOT))
        return entry

    def scan(self, query) -> Generator:
        readdir = self.namespace.readdir
        out: List[FieldKey] = []
        try:
            params = yield from readdir(INDEX_ROOT)
        except (DerNonexist, FsError):
            return out  # nothing archived yet
        for param in params:
            if query.param is not None and param not in query.param:
                continue
            param_dir = f"{INDEX_ROOT}/{param}"
            levels = yield from readdir(param_dir)
            for level_name in levels:
                level = int(level_name)
                if query.level is not None and level not in query.level:
                    continue
                names = yield from readdir(f"{param_dir}/{level_name}")
                for name in names:
                    key = _parse_leaf(param, level, name)
                    if query.matches(key):
                        out.append(key)
        out.sort(key=lambda k: k.canonical)
        return out

    def landmark(self, name, record) -> Generator:
        if "/" in name:
            raise DerInval(f"bad landmark name {name!r}")
        yield from self._write(f"{LANDMARK_ROOT}/{name}", record)
        return None

    def get_landmark(self, name) -> Generator:
        record = yield from self._read(f"{LANDMARK_ROOT}/{name}")
        return record

    def _write(self, path: str, record: dict) -> Generator:
        data = json.dumps(record, sort_keys=True).encode("utf-8")
        yield from self.namespace.write(path, BytesPayload(data))
        return None

    def _read(self, path: str) -> Generator:
        payload = yield from self.namespace.read(path, _RECORD_MAX)
        return json.loads(payload.materialize().decode("utf-8"))

    def close(self) -> None:
        self.namespace.close()


def _parse_leaf(param: str, level: int, name: str) -> FieldKey:
    try:
        step, member, date = name.split(".")
        return FieldKey(param, level, int(step), int(member), date)
    except (ValueError, DerInval) as exc:
        raise DerInval(f"malformed index leaf {name!r}") from exc
