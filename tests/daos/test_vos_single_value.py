"""VOS single values against a naive epoch-sorted version list.

A :class:`SingleValue` keeps its newest version inline and a list of
older ones only once a second version lands. The seeded oracle below
drives in-order writes, late older-epoch rebuild replays and
duplicate-epoch replays through one :class:`VosContainer` and a plain
list per key, and after every step compares the fetched value, every
version in order, ``rebuild_delta``'s newest entry and the pool charge.
It kills these mutants of the record layer: dropping the displaced
newest version on update, appending a late replay as the newest,
appending an older replay to the older versions out of epoch order,
letting an equal epoch stay behind the newest, checking duplicate
epochs against the newest version only, uncharging only the newest
version on punch, and ``rebuild_delta`` shipping the oldest version.
"""

import gc
import random
import pytest

from repro.daos.vos.container import SingleValue, VosContainer, _value_footprint


class LedgerPool:
    """Records every charge, with no capacity and no clamp at zero."""

    def __init__(self) -> None:
        self.used = 0

    def charge(self, delta: int) -> None:
        self.used += delta


def test_a_value_written_once_holds_no_list_and_no_tuple():
    vc = VosContainer("c")
    epoch = vc.update_single("o", "d", b"a", b"field")
    single = vc.value("o", "d", b"a", SingleValue)
    assert (single.epoch, single.value, single.older) == (epoch, b"field", None)
    assert not [ref for ref in gc.get_referents(single)
                if isinstance(ref, (list, tuple))]
    assert vc.fetch_single("o", "d", b"a") == b"field"
    assert single.history == [(epoch, b"field")]


DKEYS = (0, 1, 2)
AKEYS = (b"a", b"b")


def _value(rng):
    if rng.random() < 0.2:
        return ("inode", rng.randrange(1000))  # a fixed-cost record
    return bytes([rng.randrange(256)]) * rng.randrange(0, 40)


@pytest.mark.parametrize("seed", [1, 7, 0xDA05, 2024])
def test_single_values_match_a_naive_epoch_sorted_list(seed):
    rng = random.Random(seed)
    pool = LedgerPool()
    vc = VosContainer("c", pool=pool)
    naive = {}  # (dkey, akey) -> [(epoch, value)], epoch-sorted, ties last

    for _step in range(400):
        key = (rng.choice(DKEYS), rng.choice(AKEYS))
        versions = naive.setdefault(key, [])
        roll = rng.random()
        value = _value(rng)
        if roll < 0.5:  # an in-order write at a fresh epoch
            epoch = vc.update_single("o", *key, value)
            versions.append((epoch, value))
        elif roll < 0.8 or not versions:  # a replay, maybe late or ahead
            epoch = rng.randrange(1, vc.clock.current + 3)
            vc.replay_single("o", *key, epoch, value)
            if all(e != epoch for e, _ in versions):
                versions.append((epoch, value))
        else:  # a replay of an epoch the shard already holds
            epoch = rng.choice(versions)[0]
            vc.replay_single("o", *key, epoch, value)
        versions.sort(key=lambda version: version[0])  # stable: ties last

        held = {k: v for k, v in naive.items() if v}
        for (dkey, akey), expect in held.items():
            assert vc.fetch_single("o", dkey, akey) == expect[-1][1]
            single = vc.value("o", dkey, akey, SingleValue)
            assert single.history == expect
            assert (single.older is None) == (len(expect) == 1)
        after = rng.randrange(0, vc.clock.current + 3)
        assert list(vc.rebuild_delta("o", after)) == [
            ("single", dkey, akey, *held[(dkey, akey)][-1])
            for dkey, akey in sorted(held) if held[(dkey, akey)][-1][0] > after
        ]
        assert pool.used == sum(_value_footprint(value)
                                for expect in held.values()
                                for _epoch, value in expect)

    for dkey in DKEYS:
        vc.punch_dkey("o", dkey)
    assert pool.used == 0
    assert list(vc.walk("o")) == []
