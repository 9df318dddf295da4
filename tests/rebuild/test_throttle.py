"""Rebuild bandwidth throttle cap math."""

from repro.rebuild.scheduler import REBUILD_FRACTION, rebuild_cap


class _Link:
    def __init__(self, capacity):
        self.capacity = capacity


def test_cap_is_fraction_of_bottleneck():
    links = [(_Link(100.0), 1.0), (_Link(400.0), 1.0)]
    assert REBUILD_FRACTION == 0.25
    assert rebuild_cap(links) == 0.25 * 100.0


def test_weights_scale_effective_capacity():
    # a weight of 2 means the flow consumes the link twice per byte
    links = [(_Link(100.0), 2.0), (_Link(80.0), 1.0)]
    assert rebuild_cap(links) == 0.25 * 50.0


def test_zero_weight_links_ignored():
    links = [(_Link(100.0), 0.0), (_Link(60.0), 1.0)]
    assert rebuild_cap(links) == 0.25 * 60.0


def test_no_links_means_no_cap():
    assert rebuild_cap([]) is None
