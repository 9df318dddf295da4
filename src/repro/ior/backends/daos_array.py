"""DAOS backend: the native array API, no filesystem at all.

This is the paper's stated future work ("extending benchmarking to use
the DAOS API rather than DFS or DFuse POSIX-based backends") — extension
experiment E1. Test "files" are DAOS arrays; a catalog KV object at a
reserved OID maps IOR paths to array OIDs so reordered readers can find
other ranks' arrays, standing in for the namespace a filesystem would
provide.
"""

from __future__ import annotations

from typing import Dict, Generator

from repro.daos.array import DaosArray
from repro.daos.kv import DaosKV
from repro.daos.objid import ObjId
from repro.daos.oclass import S1, oclass_by_name
from repro.ior.backends.base import Backend

#: reserved OID (below RESERVED_OIDS) for the path->oid catalog
CATALOG_LO = 2


class DaosArrayBackend(Backend):
    name = "DAOS"
    # daos_array_write/read take a daos_event_t; concurrent ops on one
    # array pipeline through the object layer's coalescing streams
    supports_async = True
    pipelined = True
    needs_daos = True

    def __init__(self, params, ctx, storage):
        super().__init__(params, ctx, storage)
        #: path -> the array this rank created there; a later create of
        #: the same path (the next repetition) replaces it
        self._created: Dict[str, ObjId] = {}

    def _catalog(self) -> DaosKV:
        return DaosKV.open(self.storage.cont, ObjId.generate(S1, lo=CATALOG_LO))

    def _oclass(self):
        name = self.params.oclass or self.storage.cont.props.get("oclass", "SX")
        return oclass_by_name(name)

    def open(self, path: str, create: bool) -> Generator:
        catalog = self._catalog()

        def make() -> Generator:
            old = self._created.get(path)
            if old is not None:
                # remove the last array and its catalog entry, as a
                # filesystem unlink frees the file and its dentry
                with self.storage.cont.open_object(old) as obj:
                    yield from obj.punch_object()
                yield from catalog.obj.punch_dkey(path.encode("utf-8"))
            array = yield from DaosArray.create(
                self.storage.cont,
                cell_size=1,
                chunk_cells=self.params.chunk_size,
                oclass=self._oclass(),
            )
            self._created[path] = array.obj.oid
            yield from catalog.put(path, (array.obj.oid.hi, array.obj.oid.lo))
            return array

        def attach() -> Generator:
            hi_lo = yield from catalog.get(path)
            return (yield from DaosArray.open(
                self.storage.cont, ObjId(hi_lo[0], hi_lo[1])
            ))

        array = yield from self._open_shared(create, make, attach)
        catalog.close()
        return array

    def write(self, handle: DaosArray, offset: int, payload) -> Generator:
        return (yield from handle.write(offset, payload))

    def read(self, handle: DaosArray, offset: int, nbytes: int) -> Generator:
        return (yield from handle.read(offset, nbytes))

    def fsync(self, handle: DaosArray) -> Generator:
        yield 0.0
        return None

    def close(self, handle: DaosArray) -> Generator:
        handle.close()
        yield 0.0
        return None
