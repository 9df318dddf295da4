"""Target state machine and pool-map status plumbing (pure units)."""

import pytest

from repro.daos.system import PoolMap
from repro.rebuild.state import (
    DOWN,
    DOWNOUT,
    REBUILDING,
    UP,
    TargetStatus,
    can_transition,
)


def test_transition_matrix():
    assert can_transition(UP, DOWN)
    assert can_transition(UP, DOWNOUT)
    assert can_transition(DOWN, REBUILDING)
    assert can_transition(DOWN, DOWNOUT)
    assert can_transition(REBUILDING, UP)
    assert can_transition(REBUILDING, DOWN)  # failed again mid-resync
    assert can_transition(REBUILDING, DOWNOUT)
    # no shortcuts, and DOWNOUT is terminal
    assert not can_transition(UP, REBUILDING)
    assert not can_transition(DOWN, UP)
    assert not can_transition(DOWNOUT, UP)
    assert not can_transition(DOWNOUT, DOWN)
    assert not can_transition(DOWNOUT, REBUILDING)
    assert not can_transition("BOGUS", UP)


def test_advance_validates_and_preserves_fields():
    down = TargetStatus(state=DOWN, version=3, watermark=17)
    reb = down.advance(REBUILDING, 4)
    assert reb.state == REBUILDING
    assert reb.version == 4
    assert reb.watermark == 17  # exclusion watermark survives transitions
    with pytest.raises(ValueError):
        down.advance(UP, 5)
    out = reb.advance(DOWNOUT, 5)
    with pytest.raises(ValueError):
        out.advance(DOWN, 6)


def test_status_record_roundtrip():
    status = TargetStatus(state=DOWNOUT, version=9, watermark=42, rebuilt=True)
    assert TargetStatus.from_record(status.to_record()) == status
    # old records without the newer fields default sanely
    legacy = TargetStatus.from_record({"state": DOWN, "version": 2})
    assert legacy.watermark == 0 and legacy.rebuilt is False


def test_pool_map_derives_exclusion_sets():
    pm = PoolMap(uuid="p", label="l", n_targets=8, capacity_per_target=1)
    pm.statuses = {
        1: TargetStatus(state=DOWN, version=2, watermark=5),
        2: TargetStatus(state=REBUILDING, version=3, watermark=5),
        3: TargetStatus(state=DOWNOUT, version=4, watermark=6),
    }
    pm.derive()
    # reads avoid every non-UP target
    assert pm.excluded == frozenset({1, 2, 3})
    assert pm.downout == frozenset({3})
    assert pm.downout_ready is False
    assert pm.state_of(0) == UP and pm.state_of(2) == REBUILDING

    pm.statuses[3] = TargetStatus(state=DOWNOUT, version=5, watermark=6,
                                  rebuilt=True)
    pm.derive()
    assert pm.downout_ready is True


def test_pool_map_record_roundtrip_keeps_statuses():
    pm = PoolMap(uuid="p", label="tank", n_targets=4, capacity_per_target=64,
                 version=7)
    pm.statuses = {2: TargetStatus(state=DOWN, version=7, watermark=11)}
    pm.derive()
    back = PoolMap.from_record("p", pm.to_record())
    assert back.version == 7
    assert back.statuses == pm.statuses
    assert back.excluded == frozenset({2})
