"""Tests for object classes, object ids, and algorithmic placement."""

import gc
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.daos.oclass import (
    _ORDERED,
    RP_2G1,
    RP_2GX,
    S1,
    S2,
    S4,
    SX,
    oclass_by_name,
    oclass_from_id,
    oclass_id,
)
from repro.daos.objid import ObjId
from repro.daos.placement import (
    HEALTHY,
    HEALTHY_SOLO,
    SOLO_GROUPS,
    Layout,
    PlacementMap,
    _mix64,
    dkey_hash,
)
from repro.errors import DerInval


def test_shard_counts():
    assert S1.shard_count(128) == 1
    assert S2.shard_count(128) == 2
    assert SX.shard_count(128) == 128
    assert RP_2G1.shard_count(128) == 2
    assert RP_2GX.shard_count(128) == 128  # 64 groups x 2 replicas


def test_class_too_wide_for_pool():
    with pytest.raises(DerInval):
        S4.group_count(2)


def test_oclass_registry_roundtrip():
    for name in ("S1", "s2", "SX", "rp_2g1"):
        oclass = oclass_by_name(name)
        assert oclass_from_id(oclass_id(oclass)) is oclass
    with pytest.raises(DerInval):
        oclass_by_name("S3")


def test_objid_embeds_class():
    oid = ObjId.generate(S2, hi=0x1234, lo=99)
    assert oid.oclass is S2
    assert oid.hi & ((1 << 48) - 1) == 0x1234  # the application's bits
    assert oid.lo == 99
    assert str(oid).count(".") == 1


def test_objid_reserved_bits_checked():
    with pytest.raises(DerInval):
        ObjId.generate(S1, hi=1 << 50)
    with pytest.raises(DerInval):
        ObjId(-1, 0)


def test_dkey_hash_types():
    assert dkey_hash(5) == dkey_hash(5)
    assert dkey_hash("abc") == dkey_hash(b"abc")
    assert dkey_hash(b"a") != dkey_hash(b"b")
    with pytest.raises(DerInval):
        dkey_hash(3.5)


def test_layout_is_deterministic_and_distinct():
    pmap = PlacementMap(128)
    oid = ObjId.generate(S4, lo=7)
    layout1 = pmap.layout(oid)
    layout2 = PlacementMap(128).layout(oid)
    assert layout1.all_targets == layout2.all_targets
    assert len(set(layout1.all_targets)) == 4


def test_sx_layout_covers_all_targets():
    pmap = PlacementMap(16)
    layout = pmap.layout(ObjId.generate(SX, lo=3))
    assert sorted(layout.all_targets) == list(range(16))


def test_replicated_layout_groups():
    pmap = PlacementMap(16)
    layout = pmap.layout(ObjId.generate(RP_2G1, lo=1))
    assert layout.group_count == 1
    assert len(layout.groups[0]) == 2
    assert layout.groups[0][0] != layout.groups[0][1]


def test_dkey_routing_stable_and_in_range():
    pmap = PlacementMap(64)
    layout = pmap.layout(ObjId.generate(S4, lo=11))
    for chunk in range(100):
        group = layout.group_of_dkey(chunk)
        assert 0 <= group < 4
        assert layout.group_of_dkey(chunk) == layout.group_of_dkey(chunk)


def test_placement_balance_over_many_objects():
    # The balls-into-bins distribution behind the S1 hotspot mechanism:
    # uniform enough that no target gets a pathological share.
    pmap = PlacementMap(64)
    load = [0] * 64
    for i in range(2000):
        layout = pmap.layout(ObjId.generate(S1, lo=i))
        load[layout.all_targets[0]] += 1
    mean = 2000 / 64
    assert max(load) < mean * 2.2
    assert min(load) > mean * 0.2


def test_dkey_spread_within_sx_object():
    pmap = PlacementMap(32)
    layout = pmap.layout(ObjId.generate(SX, lo=5))
    hits = [0] * 32
    for chunk in range(64 * 32):
        hits[layout.targets_for_dkey(chunk)[0]] += 1
    assert min(hits) > 0  # every target sees some chunks
    assert max(hits) < 64 * 4


@settings(max_examples=50, deadline=None)
@given(
    n_targets=st.integers(1, 200),
    lo=st.integers(0, 2**63),
    cls=st.sampled_from([S1, S2, SX]),
)
def test_property_layouts_valid(n_targets, lo, cls):
    if cls.grp_nr > n_targets:
        return
    pmap = PlacementMap(n_targets)
    layout = pmap.layout(ObjId.generate(cls, lo=lo))
    targets = layout.all_targets
    assert len(set(targets)) == len(targets)
    assert all(0 <= t < n_targets for t in targets)
    assert len(targets) == cls.shard_count(n_targets)


def _visited_set_probe(oid, n_targets):
    """The probe as it was first written, with a visited set: (groups,
    spares). The reference the closed-form probe must reproduce."""
    oclass = oid.oclass
    groups_nr = oclass.group_count(n_targets)
    width = oclass.group_width
    seed = _mix64(oid.hi * 0x9E3779B97F4A7C15 ^ _mix64(oid.lo))
    start = seed % n_targets
    stride = 1
    if n_targets > 1:
        stride = 1 + (_mix64(seed) % (n_targets - 1))
        while math.gcd(stride, n_targets) != 1:
            stride += 1
    chosen, taken, probe = [], set(), start
    while len(chosen) < groups_nr * width:
        if probe not in taken:
            taken.add(probe)
            chosen.append(probe)
        probe = (probe + stride) % n_targets
    groups = tuple(tuple(chosen[g * width:(g + 1) * width])
                   for g in range(groups_nr))
    spares, probe = [], start
    for _ in range(n_targets):
        if probe not in taken:
            taken.add(probe)
            spares.append(probe)
        probe = (probe + stride) % n_targets
    return groups, spares


def test_layouts_match_the_visited_set_probe_and_none_is_kept():
    oids = []
    for n_targets in list(range(1, 65)) + [128, 256]:
        pmap = PlacementMap(n_targets)
        for oclass in _ORDERED:
            try:
                oclass.group_count(n_targets)
            except DerInval:  # class wider than the pool
                with pytest.raises(DerInval):
                    pmap.layout(ObjId.generate(oclass, lo=1))
                continue
            for lo in (0, 1, 7, 2**40 + 3):
                oid = ObjId.generate(oclass, hi=n_targets, lo=lo)
                layout = pmap.layout(oid)
                assert (layout.groups, layout.spares) == _visited_set_probe(
                    oid, n_targets
                ), (oclass.name, n_targets, lo)
                oids.append(oid)
    # computed at open: the map holds no layout once its caller drops it
    del layout
    gc.collect()
    wanted = set(oids)
    assert not [obj for obj in gc.get_objects()
                if isinstance(obj, Layout) and obj.oid in wanted]


def test_width_one_groups_are_shared_per_target_tables_bounded_by_the_pool():
    """What depends on a target id alone is built once per target: every
    width-1 group is the shared ``(t,)``, wider groups stay per-layout
    slices, and the tables grow to the largest pool and no further."""
    n_targets = len(HEALTHY) + 5  # a pool larger than any seen so far
    pmap = PlacementMap(n_targets)
    assert len(SOLO_GROUPS) == len(HEALTHY) == len(HEALTHY_SOLO) == n_targets
    for lo in range(200):
        for oclass in (S1, S2, SX, RP_2G1, RP_2GX):
            groups = pmap.layout(ObjId.generate(oclass, lo=lo)).groups
            for group in groups:
                assert (group is SOLO_GROUPS[group[0]]) == (len(group) == 1)
    PlacementMap(3)  # a smaller pool adds nothing
    assert len(SOLO_GROUPS) == len(HEALTHY) == len(HEALTHY_SOLO) == n_targets
    for t in range(n_targets):
        assert SOLO_GROUPS[t] == (t,) and HEALTHY[t] == (t, True, True)
        assert HEALTHY_SOLO[t] == (HEALTHY[t],)
        assert HEALTHY_SOLO[t][0] is HEALTHY[t]
    gc.collect()
    gc.collect()
    assert not any(map(gc.is_tracked, SOLO_GROUPS + HEALTHY + HEALTHY_SOLO))
