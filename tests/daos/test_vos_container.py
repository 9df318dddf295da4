"""VosContainer's ordered index: point lookup, walk, enumeration and the
size query, against a nested-dict model — no Simulator until the EC case
at the end."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import small_cluster
from repro.daos.oclass import EC_2P1G1
from repro.daos.vos.container import SingleValue, VosContainer
from repro.daos.vos.extent import ExtentTree
from repro.errors import DerInval
from repro.units import KiB, MiB


def test_lookup_absent_is_none_and_create_makes_every_level():
    vc = VosContainer("c")
    assert vc.value("o", "d", b"a", ExtentTree) is None
    assert vc.objects == {}  # a miss makes nothing
    tree = vc.value("o", "d", b"a", ExtentTree, create=True)
    assert isinstance(tree, ExtentTree)
    assert vc.value("o", "d", b"a", ExtentTree) is tree
    assert vc.value("o", "d", b"other", SingleValue) is None


def test_lookup_owns_the_wrong_kind_error():
    """One rule for every path that reaches an akey: asking for a single
    value where an array lives (or the reverse) is DerInval — writes,
    reads, punches, sizes and the rebuild replays alike."""
    vc = VosContainer("c")
    vc.update_array("o", 0, b"arr", 0, b"bytes")
    vc.update_single("o", 0, b"kv", "v")
    with pytest.raises(DerInval, match="array value"):
        vc.value("o", 0, b"arr", SingleValue)
    with pytest.raises(DerInval, match="single value"):
        vc.value("o", 0, b"kv", ExtentTree, create=True)
    for call in (
        lambda: vc.update_single("o", 0, b"arr", "v"),
        lambda: vc.fetch_single("o", 0, b"arr"),
        lambda: vc.punch_single("o", 0, b"arr"),
        lambda: vc.replay_single("o", 0, b"arr", 1, "v"),
        lambda: vc.update_array("o", 0, b"kv", 0, b"x"),
        lambda: vc.fetch_array("o", 0, b"kv", 0, 1),
        lambda: vc.array_size("o", 0, b"kv"),
        lambda: vc.punch_array("o", 0, b"kv", 0, 1),
        lambda: vc.replay_array("o", 0, b"kv", 0, b"x", 1),
    ):
        with pytest.raises(DerInval):
            call()


def test_walk_is_key_ordered_and_narrows_to_one_dkey():
    vc = VosContainer("c")
    vc.update_array("o", 2, b"arr", 0, b"22")
    vc.update_array("o", 1, b"arr", 0, b"1")
    vc.update_single("o", 1, b"kv", "v")
    assert [(d, a, type(v)) for d, a, v in vc.walk("o")] == [
        (1, b"arr", ExtentTree), (1, b"kv", SingleValue), (2, b"arr", ExtentTree)
    ]
    assert [(d, a) for d, a, _v in vc.walk("o", 2)] == [(2, b"arr")]
    assert list(vc.walk("o", 3)) == [] and list(vc.walk("nope")) == []
    assert list(vc.dkey_array_sizes("o", b"arr")) == [(2, 2)]


CS = 8  # chunk size of the model arrays: no write passes the end of a chunk
AKEYS = (b"a", b"b")
#: one object per key type (an object's dkeys are mutually comparable);
#: every op and every bound draws from these, so most bounds are missing
DKEYS = {
    "ints": [0, 1, 2, 3, 5, 8, 13],
    "names": [b"a", b"ab", b"b", b"ba", b"c", b"\xff", b"\xff\x00"],
}
_SLOT = st.integers(0, 6)
_BOUND = st.one_of(st.none(), _SLOT)
_STEP = st.tuples(
    st.sampled_from(["update_single", "update_array", "punch_single",
                     "punch_array", "punch_dkey", "punch_object"]),
    st.sampled_from(sorted(DKEYS)), _SLOT, st.sampled_from(AKEYS),
    st.integers(0, CS - 1), st.integers(1, CS), _BOUND, _BOUND,
)


def _apply(model, op, oid, dkey, akey, offset, length):
    """Apply one step to the model — ``{oid: {dkey: {akey: held}}}`` with
    ``held`` a set of byte offsets (array) or a one-item list (single) —
    and return what the same call on the container must return; ``None``
    for a wrong-kind akey, which must raise DerInval."""
    if op == "punch_object":
        return model.pop(oid, None) is not None
    if op == "punch_dkey":
        return model.get(oid, {}).pop(dkey, None) is not None
    held = model.get(oid, {}).get(dkey, {}).get(akey)
    span = set(range(offset, min(offset + length, CS)))
    if op.startswith("punch"):
        if held is None:
            return False  # == 0, the bytes a punch_array frees
        if isinstance(held, set) != (op == "punch_array"):
            return None
        if op == "punch_array":
            freed = len(held & span)
            held -= span
            return freed
        visible, held[0] = held[0], False
        return visible
    if held is None:
        held = set() if op == "update_array" else [False]
        model.setdefault(oid, {}).setdefault(dkey, {})[akey] = held
    elif isinstance(held, set) != (op == "update_array"):
        return None
    if op == "update_array":
        held |= span
    else:
        held[0] = True
    return True


def _call(vc, op, oid, dkey, akey, offset, length):
    got = getattr(vc, op)(*{
        "punch_object": (oid,),
        "punch_dkey": (oid, dkey),
        "punch_single": (oid, dkey, akey),
        "punch_array": (oid, dkey, akey, offset, length),
        "update_single": (oid, dkey, akey, "v"),
        "update_array": (oid, dkey, akey, offset,
                         b"x" * (min(offset + length, CS) - offset)),
    }[op])
    return got > 0 if op.startswith("update") else got  # an update's epoch


@settings(max_examples=150, deadline=None)
@given(st.lists(_STEP, max_size=30))
def test_index_matches_a_nested_dict_read_with_sorted(steps):
    vc, model = VosContainer("c"), {}
    for op, oid, slot, akey, offset, length, lo, hi in steps:
        dkey = DKEYS[oid][slot]
        expected = _apply(model, op, oid, dkey, akey, offset, length)
        if expected is None:
            with pytest.raises(DerInval):
                _call(vc, op, oid, dkey, akey, offset, length)
        else:
            assert _call(vc, op, oid, dkey, akey, offset, length) == expected
        assert set(vc.objects) == set(model)
        for oid, dkeys in DKEYS.items():
            held = model.get(oid, {})
            flat = [(d, a, type(v)) for d in sorted(held)
                    for a, v in sorted(held[d].items())]
            assert [(d, a, set if isinstance(v, ExtentTree) else list)
                    for d, a, v in vc.walk(oid)] == flat
            for d in dkeys:  # held or not
                assert [(d, a) for d, a, _v in vc.walk(oid, d)] == [
                    (d, a) for a in sorted(held.get(d, ()))]
            lo_key, hi_key = (None if b is None else dkeys[b] for b in (lo, hi))
            assert list(vc.list_dkeys(oid, lo_key, hi_key)) == [
                d for d in sorted(held)
                if (lo is None or lo_key <= d) and (hi is None or d < hi_key)]
            for a in AKEYS:
                # the full walk the parent did: every non-empty array
                naive = [(d, max(held[d][a]) + 1) for d in sorted(held)
                         if isinstance(held[d].get(a), set) and held[d][a]]
                sizes = list(vc.dkey_array_sizes(oid, a))
                assert sizes == naive[-1:]  # at most one entry: the top one
                if oid == "ints":  # ... and it alone decides the object size
                    assert (sum(d * CS + size for d, size in sizes)
                            == max((d * CS + size for d, size in naive),
                                   default=0))


def test_ec_size_reads_the_top_cell_of_each_data_shard():
    """EC_2P1G1, 1 MiB chunks of two 512 KiB cells: a short final stripe
    leaves the second data shard's top cell one stripe lower than the
    first's, and a rebuilt shard must answer like the one it replaces."""
    cluster = small_cluster(server_nodes=2, client_nodes=1,
                            targets_per_engine=2, seed=7)
    client = cluster.new_client(0)

    def go():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("sizes", oclass="EC_2P1G1")
        obj = cont.open_object((yield from cont.alloc_oid(EC_2P1G1)))
        sizes = []
        yield from obj.write(0, b"q" * (MiB + 300 * KiB), chunk_size=MiB)
        sizes.append((yield from obj.size(chunk_size=MiB)))
        first, second, _parity = obj.layout.targets_for_dkey(0)
        uuid = pool.pool_map.uuid
        # the first data shard misses a third, shorter stripe ...
        yield from cluster.daos.exclude_target(uuid, first)
        yield from pool.refresh_map()
        yield from obj.write(2 * MiB, b"r" * (100 * KiB), chunk_size=MiB)
        yield from cluster.daos.reintegrate_target(uuid, first)
        yield from cluster.daos.wait_rebuild(uuid)
        yield from pool.refresh_map()
        sizes.append((yield from obj.size(chunk_size=MiB)))
        # ... and once rebuilt is the only data shard left to ask
        yield from cluster.daos.exclude_target(uuid, second)
        yield from pool.refresh_map()
        sizes.append((yield from obj.size(chunk_size=MiB)))
        obj.close()
        return sizes

    assert cluster.run(go()) == [
        MiB + 300 * KiB, 2 * MiB + 100 * KiB, 2 * MiB + 100 * KiB]
