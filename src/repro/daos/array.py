"""The libdaos Array API (``daos_array_*``).

A DAOS array is an object interpreted as a 1-D byte array, chunked
across dkeys every ``chunk_bytes`` bytes (``daos_array_create`` with a
cell size of 1, the only one the paper's interfaces use). This is the
interface the paper's future work targets ("extending benchmarking to
use the DAOS API"), and what the IOR ``DAOS`` backend drives — no POSIX,
no DFS, straight to the object layer.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.daos.objid import ObjId
from repro.daos.object import ObjectHandle
from repro.daos.oclass import ObjectClass
from repro.daos.vos.payload import as_payload
from repro.errors import DerInval

# Array metadata lives under a reserved dkey. Chunk dkeys are the
# non-negative chunk indices, so dkey -1 keeps the per-object dkey tree
# homogeneous (one key type per tree) and sorts before every chunk.
ARRAY_META_DKEY = -1


class DaosArray:
    """Open handle on an array object."""

    def __init__(self, obj: ObjectHandle, chunk_bytes: int):
        if chunk_bytes <= 0:
            raise DerInval("chunk_bytes must be positive")
        self.obj = obj
        self.chunk_bytes = chunk_bytes

    @classmethod
    def create(
        cls,
        cont,
        chunk_bytes: int,
        oclass: Optional[ObjectClass] = None,
    ) -> Generator:
        """Task helper: allocate an OID, persist array metadata, open."""
        oid = yield from cont.alloc_oid(oclass)
        obj = cont.open_object(oid)
        yield from obj.put(ARRAY_META_DKEY, b"md",
                           {"chunk_bytes": chunk_bytes})
        return cls(obj, chunk_bytes)

    @classmethod
    def open(cls, cont, oid: ObjId) -> Generator:
        """Task helper: open an existing array, reading its metadata."""
        obj = cont.open_object(oid)
        md = yield from obj.get(ARRAY_META_DKEY, b"md")
        return cls(obj, md["chunk_bytes"])

    # ------------------------------------------------------------- I/O
    def write(self, offset: int, data) -> Generator:
        """Task helper: write ``data`` at byte ``offset``; returns the
        bytes written."""
        return (yield from self.obj.write(
            offset, as_payload(data), chunk_size=self.chunk_bytes
        ))

    def read(self, offset: int, nbytes: int) -> Generator:
        """Task helper: read ``nbytes`` bytes at byte ``offset``."""
        return (yield from self.obj.read(
            offset, nbytes, chunk_size=self.chunk_bytes
        ))

    def close(self) -> None:
        self.obj.close()
