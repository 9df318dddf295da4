"""The libdaos Array API (``daos_array_*``).

A DAOS array is an object interpreted as a 1-D array of fixed-size
*cells*, chunked across dkeys every ``chunk_size`` cells. This is the
interface the paper's future work targets ("extending benchmarking to
use the DAOS API"), and what the IOR ``DAOS`` backend drives — no POSIX,
no DFS, straight to the object layer.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.daos.objid import ObjId
from repro.daos.object import ObjectHandle
from repro.daos.oclass import ObjectClass
from repro.daos.vos.payload import Payload, as_payload
from repro.errors import DerInval
from repro.units import MiB

# Array metadata lives under a reserved dkey. Chunk dkeys are the
# non-negative chunk indices, so dkey -1 keeps the per-object dkey tree
# homogeneous (one key type per tree) and sorts before every chunk.
ARRAY_META_DKEY = -1


class DaosArray:
    """Open handle on an array object."""

    def __init__(self, obj: ObjectHandle, cell_size: int, chunk_cells: int):
        if cell_size <= 0 or chunk_cells <= 0:
            raise DerInval("cell_size and chunk_cells must be positive")
        self.obj = obj
        self.cell_size = cell_size
        self.chunk_cells = chunk_cells

    # One chunk of cells maps to one dkey of chunk_bytes.
    @property
    def chunk_bytes(self) -> int:
        return self.cell_size * self.chunk_cells

    @classmethod
    def create(
        cls,
        cont,
        cell_size: int = 1,
        chunk_cells: int = MiB,
        oclass: Optional[ObjectClass] = None,
    ) -> Generator:
        """Task helper: allocate an OID, persist array metadata, open."""
        oid = yield from cont.alloc_oid(oclass)
        obj = cont.open_object(oid)
        yield from obj.put(
            ARRAY_META_DKEY,
            b"md",
            {"cell_size": cell_size, "chunk_cells": chunk_cells},
        )
        return cls(obj, cell_size, chunk_cells)

    @classmethod
    def open(cls, cont, oid: ObjId) -> Generator:
        """Task helper: open an existing array, reading its metadata."""
        obj = cont.open_object(oid)
        md = yield from obj.get(ARRAY_META_DKEY, b"md")
        return cls(obj, md["cell_size"], md["chunk_cells"])

    # ------------------------------------------------------------- I/O
    def write(self, index: int, data) -> Generator:
        """Task helper: write cells starting at cell ``index``."""
        payload = as_payload(data)
        if payload.nbytes % self.cell_size:
            raise DerInval(
                f"write of {payload.nbytes} B is not a whole number of "
                f"{self.cell_size}-B cells"
            )
        nbytes = yield from self.obj.write(
            index * self.cell_size, payload, chunk_size=self.chunk_bytes
        )
        return nbytes // self.cell_size

    def read(self, index: int, count: int) -> Generator:
        """Task helper: read ``count`` cells starting at cell ``index``."""
        payload = yield from self.obj.read(
            index * self.cell_size,
            count * self.cell_size,
            chunk_size=self.chunk_bytes,
        )
        return payload

    def close(self) -> None:
        self.obj.close()
