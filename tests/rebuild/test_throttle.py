"""Rebuild bandwidth throttle cap math."""

from repro.rebuild import RebuildThrottle


class _Link:
    def __init__(self, capacity):
        self.capacity = capacity


def test_cap_is_fraction_of_bottleneck():
    throttle = RebuildThrottle(0.25)
    links = [(_Link(100.0), 1.0), (_Link(400.0), 1.0)]
    assert throttle.cap_for(links) == 0.25 * 100.0


def test_weights_scale_effective_capacity():
    # a weight of 2 means the flow consumes the link twice per byte
    throttle = RebuildThrottle(0.5)
    links = [(_Link(100.0), 2.0), (_Link(80.0), 1.0)]
    assert throttle.cap_for(links) == 0.5 * 50.0


def test_zero_weight_links_ignored():
    throttle = RebuildThrottle(0.1)
    links = [(_Link(100.0), 0.0), (_Link(60.0), 1.0)]
    assert throttle.cap_for(links) == 0.1 * 60.0


def test_disabled_at_full_fraction():
    assert RebuildThrottle(1.0).cap_for([(_Link(10.0), 1.0)]) is None
    assert RebuildThrottle(2.0).cap_for([(_Link(10.0), 1.0)]) is None


def test_no_links_means_no_cap():
    assert RebuildThrottle(0.25).cap_for([]) is None
