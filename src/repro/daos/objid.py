"""128-bit object identifiers with the object class embedded in ``hi``.

Mirrors the real DAOS encoding: the application (or DFS) supplies the
low 96 bits; ``daos_obj_generate_oid`` folds the object-class id into
the upper bits of ``oid.hi`` so that any client can compute the layout
from the OID alone — placement is algorithmic, there is no per-object
metadata lookup.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.daos.oclass import ObjectClass, oclass_from_id, oclass_id
from repro.errors import DerInval

_CLASS_SHIFT = 48
_CLASS_MASK = 0xFFFF << _CLASS_SHIFT
_LO_MASK = (1 << 64) - 1


@dataclass(frozen=True, order=True)
class ObjId:
    hi: int
    lo: int

    def __post_init__(self) -> None:
        if not (0 <= self.hi < (1 << 64) and 0 <= self.lo < (1 << 64)):
            raise DerInval(f"oid out of range: ({self.hi:#x}, {self.lo:#x})")

    @classmethod
    def generate(cls, oclass: ObjectClass, lo: int = 0) -> "ObjId":
        """Embed ``oclass`` into the top 16 bits of ``hi``."""
        return cls(oclass_id(oclass) << _CLASS_SHIFT, lo & _LO_MASK)

    @property
    def oclass(self) -> ObjectClass:
        cid = (self.hi & _CLASS_MASK) >> _CLASS_SHIFT
        return oclass_from_id(cid)

    def __str__(self) -> str:
        return f"{self.hi:016x}.{self.lo:016x}"
