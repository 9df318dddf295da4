"""Tests for object classes, object ids, and algorithmic placement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.daos.oclass import (
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
from repro.daos.placement import PlacementMap, dkey_hash
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
    assert oid.app_hi == 0x1234
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
        assert layout.targets_for_dkey(chunk)[0] == layout.leader_for_dkey(chunk)
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
        hits[layout.leader_for_dkey(chunk)] += 1
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
