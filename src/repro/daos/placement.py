"""Algorithmic placement: OID → ordered list of target ids.

DAOS computes object layouts with a pseudo-random algorithmic map over
the pool map so that *every* client derives the same layout with no
metadata traffic. We reproduce that property, not its algorithm: the
layout is ``shard_count`` distinct targets picked by a double-hashing
probe sequence seeded by the OID (:meth:`PlacementMap.layout`; the same
sequence continued yields the spares for DOWNOUT members), and dkeys are
routed to layout groups by a stable hash — so chunk *i* of a DFS file
always lands on the same target no matter which client touches it.

Randomness quality matters here: S1 "hotspots" in Figure 1 are a
balls-into-bins effect of this very map.
"""

from __future__ import annotations

import hashlib
import math
from typing import List, Tuple

from repro.daos.objid import ObjId
from repro.errors import DerInval


def _mix64(value: int) -> int:
    """splitmix64 finalizer — cheap, well-distributed 64-bit mixing."""
    value &= 0xFFFFFFFFFFFFFFFF
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


def dkey_hash(dkey) -> int:
    """Stable 64-bit hash of a dkey (int chunk indices or byte names)."""
    if isinstance(dkey, int):
        return _mix64(dkey)
    if isinstance(dkey, str):
        dkey = dkey.encode("utf-8")
    if isinstance(dkey, (bytes, bytearray)):
        return int.from_bytes(
            hashlib.blake2b(bytes(dkey), digest_size=8).digest(), "little"
        )
    raise DerInval(f"unhashable dkey type {type(dkey).__name__}")


Groups = Tuple[Tuple[int, ...], ...]

#: a route entry: (target id actually serving the slot, readable, writable)
Route = Tuple[int, bool, bool]

# Placement metadata that is a function of a target id alone, built once
# per target and shared by every layout and handle in the process:
# ``SOLO_GROUPS[t] == (t,)`` (the width-1 groups of S1, S2 and SX),
# ``HEALTHY[t] == (t, True, True)`` and ``HEALTHY_SOLO[t] ==
# (HEALTHY[t],)``. PlacementMap grows them to its pool's target count, so
# they are bounded by the largest target id; ints and bools only, so the
# cyclic collector untracks them.
SOLO_GROUPS: List[Tuple[int]] = []
HEALTHY: List[Route] = []
HEALTHY_SOLO: List[Tuple[Route]] = []


class Layout:
    """An object's resolved placement.

    ``groups[g]`` lists the target ids of redundancy group *g* (first
    entry is the group leader). A dkey belongs to exactly one group.
    Tuples of ints: the cyclic collector stops tracking them.
    """

    __slots__ = ("oid", "groups", "_probe")

    def __init__(self, oid: ObjId, groups: Groups,
                 probe: Tuple[int, int, int]):
        self.oid = oid
        self.groups = groups
        #: (n_targets, start, stride) of the probe sequence that produced
        #: ``groups`` — continuing it yields the deterministic spares used
        #: when a member goes DOWNOUT.
        self._probe = probe

    @property
    def spares(self) -> List[int]:
        """Targets outside the layout, in probe order (may be empty).

        Every client derives the same list from the OID alone, so spare
        substitution after a permanent exclusion needs no metadata — the
        same algorithmic-placement property the primary layout has.
        """
        n_targets, start, stride = self._probe
        shards = len(self.groups) * len(self.groups[0])
        return [(start + i * stride) % n_targets
                for i in range(shards, n_targets)]

    @property
    def group_count(self) -> int:
        return len(self.groups)

    @property
    def all_targets(self) -> List[int]:
        return [t for group in self.groups for t in group]

    def group_of_dkey(self, dkey) -> int:
        return dkey_hash(dkey) % len(self.groups)

    def targets_for_dkey(self, dkey) -> Tuple[int, ...]:
        """All replica targets holding ``dkey`` (leader first)."""
        return self.groups[self.group_of_dkey(dkey)]


class PlacementMap:
    """Layout computation over a pool's target list."""

    def __init__(self, n_targets: int):
        if n_targets <= 0:
            raise DerInval("pool needs at least one target")
        self.n_targets = n_targets
        for t in range(len(HEALTHY), n_targets):
            SOLO_GROUPS.append((t,))
            HEALTHY.append((t, True, True))
            HEALTHY_SOLO.append((HEALTHY[t],))

    def layout(self, oid: ObjId) -> Layout:
        """``oid``'s layout, derived afresh on every call — object open
        computes it, as ``daos_obj_open`` does, and nothing is cached."""
        n_targets = self.n_targets
        oclass = oid.oclass
        groups_nr = oclass.group_count(n_targets)
        width = oclass.group_width
        seed = _mix64(oid.hi * 0x9E3779B97F4A7C15 ^ _mix64(oid.lo))
        # A seeded double-hashing probe over the targets; gcd(stride, n)
        # == 1 makes it full-cycle (its first n steps visit every target
        # once), so picking distinct targets needs no visited set.
        start = seed % n_targets
        stride = 1
        if n_targets > 1:
            stride = 1 + (_mix64(seed) % (n_targets - 1))
            while math.gcd(stride, n_targets) != 1:
                stride += 1
        chosen = tuple([(start + i * stride) % n_targets
                        for i in range(groups_nr * width)])
        if width == 1:
            groups = tuple([SOLO_GROUPS[t] for t in chosen])
        else:
            groups = tuple([chosen[g * width : (g + 1) * width]
                            for g in range(groups_nr)])
        return Layout(oid, groups, (n_targets, start, stride))


def effective_groups(layout: Layout, downout: frozenset) -> Groups:
    """Substitute DOWNOUT members with deterministic spares.

    Every DOWNOUT slot (group-major order) takes the next spare from the
    layout's probe continuation that is not itself DOWNOUT; slots with no
    spare left keep the dead member (the slot stays degraded forever).
    The result depends only on (layout, downout) — DOWNOUT is terminal,
    so the substitution is stable over time and every client and the
    rebuild engine agree on it without coordination.
    """
    if not downout:
        return layout.groups
    spares = iter(s for s in layout.spares if s not in downout)
    return tuple([
        tuple([next(spares, tid) if tid in downout else tid for tid in group])
        for group in layout.groups
    ])
