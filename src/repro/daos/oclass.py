"""DAOS object classes.

An object class fixes how an object's shards map onto pool targets:

- ``S1``/``S2``/``S4``/``S8`` — striped over a fixed number of targets,
  no redundancy (the classes swept in the paper's Figure 1);
- ``SX`` — striped over *every* target in the pool ("max sharding",
  the Lustre-wide-striping analogue, used for the shared-file runs);
- ``RP_2G1``/``RP_2GX``/``RP_3GX`` — replicated classes (extension
  beyond the paper's sweep: redundancy factor 2 or 3, one group or max
  groups), exercised by the fault-tolerance tests.

``grp_nr`` follows DAOS terminology: number of redundancy groups
(stripes); ``rdd_nr`` is replicas per group.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DerInval


@dataclass(frozen=True)
class ObjectClass:
    """A (stripe count, redundancy) tuple with DAOS-style naming.

    Redundancy within a group is either replication (``rdd_nr`` copies)
    or erasure coding (``ec_k`` data + ``ec_p`` parity cells) — never
    both.
    """

    name: str
    #: redundancy groups (stripe width); 0 means "all targets" (the X classes)
    grp_nr: int
    #: replicas within each group (1 = no redundancy)
    rdd_nr: int = 1
    #: erasure coding: data cells per group (0 = not erasure coded)
    ec_k: int = 0
    #: erasure coding: parity cells per group
    ec_p: int = 0

    @property
    def group_width(self) -> int:
        """Targets per redundancy group."""
        return self.ec_k + self.ec_p if self.is_ec else self.rdd_nr

    def group_count(self, pool_targets: int) -> int:
        if pool_targets <= 0:
            raise DerInval("pool has no targets")
        width = self.group_width
        groups = self.grp_nr if self.grp_nr > 0 else max(
            1, pool_targets // width
        )
        if groups * width > pool_targets:
            raise DerInval(
                f"class {self.name} needs {groups * width} targets, "
                f"pool has {pool_targets}"
            )
        return groups

    @property
    def is_ec(self) -> bool:
        return self.ec_k > 0

    def __str__(self) -> str:
        return self.name


S1 = ObjectClass("S1", grp_nr=1)
S2 = ObjectClass("S2", grp_nr=2)
S4 = ObjectClass("S4", grp_nr=4)
S8 = ObjectClass("S8", grp_nr=8)
SX = ObjectClass("SX", grp_nr=0)
RP_2G1 = ObjectClass("RP_2G1", grp_nr=1, rdd_nr=2)
RP_2GX = ObjectClass("RP_2GX", grp_nr=0, rdd_nr=2)
RP_3G1 = ObjectClass("RP_3G1", grp_nr=1, rdd_nr=3)
EC_2P1G1 = ObjectClass("EC_2P1G1", grp_nr=1, ec_k=2, ec_p=1)
EC_2P1GX = ObjectClass("EC_2P1GX", grp_nr=0, ec_k=2, ec_p=1)
EC_4P1G1 = ObjectClass("EC_4P1G1", grp_nr=1, ec_k=4, ec_p=1)

#: registration order is the wire format: class ids are embedded in OIDs
#: and drive placement, so this list is APPEND-ONLY (like the real
#: DAOS OC_* numbering) — renumbering would silently re-place every
#: existing object.
_ORDERED = (
    RP_2G1, RP_2GX, RP_3G1, S1, S2, S4, S8, SX,
    EC_2P1G1, EC_2P1GX, EC_4P1G1,
)
_REGISTRY = {c.name: c for c in _ORDERED}
_CLASS_IDS = {c.name: i + 1 for i, c in enumerate(_ORDERED)}
_IDS_CLASS = {v: k for k, v in _CLASS_IDS.items()}


def oclass_by_name(name: str) -> ObjectClass:
    try:
        return _REGISTRY[name.upper()]
    except KeyError:
        raise DerInval(f"unknown object class {name!r}") from None


def oclass_id(oclass: ObjectClass) -> int:
    return _CLASS_IDS[oclass.name]


def oclass_from_id(cid: int) -> ObjectClass:
    try:
        return _REGISTRY[_IDS_CLASS[cid]]
    except KeyError:
        raise DerInval(f"unknown object class id {cid}") from None
