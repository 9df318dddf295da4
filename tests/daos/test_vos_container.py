"""VosContainer's point lookup and walk, with no Simulator in sight."""

import pytest

from repro.daos.vos.container import SingleValue, VosContainer
from repro.daos.vos.extent import ExtentTree
from repro.errors import DerInval


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
    assert list(vc.dkey_array_sizes("o", b"arr")) == [(1, 1), (2, 2)]
