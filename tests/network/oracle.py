"""Global-solve differential oracle for the bandwidth allocator.

:class:`ReferenceAllocator` is progressive filling exactly as originally
shipped: every reallocation re-solves *all* flows over *all* links in
pure Python, with no dirty tracking, no components and no numpy. It is
the byte-stability anchor — the pinned seed figures were produced by
this arithmetic, so it must never drift — and it plugs into
``FlowNetwork(sim, allocator=ReferenceAllocator())`` through the same
:class:`~repro.network.allocator.Allocator` protocol as the shipped
policy.

:func:`reference_allocator` swaps it in for whole-cluster runs (which
build their own ``FlowNetwork``), and :func:`assert_within_capacity` is
the feasibility invariant the differential suites check after every
solve.
"""

import math
from contextlib import contextmanager
from typing import Dict, List
from unittest import mock

from repro.errors import NetworkError
from repro.network.allocator import EPS, UNBOUNDED_RATE


class ReferenceAllocator:
    """Global progressive filling; ignores dirtiness."""

    def __init__(self):
        self.forced_exits = 0
        self._flows: Dict[object, None] = {}
        self._rates: Dict[object, float] = {}

    # -- register: a global solver only needs the population -----------------
    def touch_link(self, link) -> None:
        pass

    def add_flow(self, flow) -> None:
        self._flows[flow] = None

    def remove_flow(self, flow) -> None:
        del self._flows[flow]
        self._rates.pop(flow, None)

    def touch_flow(self, flow) -> None:
        pass

    def rate(self, flow) -> float:
        return self._rates[flow]

    # -- compute --------------------------------------------------------------
    def compute(self):
        flows = list(self._flows)
        n = len(flows)
        rates = self._rates
        denom: Dict[object, float] = {}
        for flow in flows:
            rates[flow] = 0.0
            for link, weight in zip(flow.links, flow.weights):
                denom[link] = denom.get(link, 0.0) + weight
        remaining = {link: link.capacity for link in denom}

        index = {flow: i for i, flow in enumerate(flows)}
        unfixed = set(range(n))
        level = 0.0  # common rate of all unfixed flows
        guard = 0
        while unfixed:
            guard += 1
            if guard > n + len(denom) + 2:
                raise NetworkError("progressive filling failed to converge")
            # Next link saturation point.
            delta_link = math.inf
            bottleneck = None
            for link, d in denom.items():
                if d > EPS:
                    step = remaining[link] / d
                    if step < delta_link:
                        delta_link = step
                        bottleneck = link
            # Next cap crossing.
            delta_cap = math.inf
            for i in unfixed:
                cap = flows[i].cap
                if cap is not None:
                    headroom = cap - level
                    if headroom < delta_cap:
                        delta_cap = headroom
            delta = min(delta_link, delta_cap)
            if delta is math.inf:
                # No binding constraint at all (flows with no links/caps):
                # they are infinitely fast in the fluid model; pick a huge
                # rate so transfers are effectively instantaneous.
                for i in unfixed:
                    rates[flows[i]] = UNBOUNDED_RATE
                break
            if delta < 0:
                delta = 0.0
            level += delta
            for link in denom:
                remaining[link] -= delta * denom[link]

            newly_fixed: List[int] = []
            if delta_cap <= delta_link:
                for i in list(unfixed):
                    cap = flows[i].cap
                    if cap is not None and cap - level <= EPS:
                        newly_fixed.append(i)
            if delta_link <= delta_cap and bottleneck is not None:
                for flow in bottleneck._flows:
                    idx = index[flow]
                    if idx in unfixed:
                        newly_fixed.append(idx)
            if not newly_fixed:
                # Numerical corner: force-fix the bottleneck link's flows.
                if bottleneck is not None:
                    for flow in bottleneck._flows:
                        idx = index[flow]
                        if idx in unfixed:
                            newly_fixed.append(idx)
                if not newly_fixed:
                    self.forced_exits += 1
                    break
            for i in newly_fixed:
                if i not in unfixed:
                    continue
                unfixed.discard(i)
                flow = flows[i]
                rates[flow] = level
                for link, weight in zip(flow.links, flow.weights):
                    denom[link] -= weight
                    if denom[link] < EPS:
                        denom[link] = 0.0
        return flows, list(denom)


@contextmanager
def reference_allocator():
    """Every ``FlowNetwork`` built inside the block (one per cluster)
    gets the oracle instead of the shipped allocator."""
    with mock.patch("repro.network.flows.MaxMinAllocator", ReferenceAllocator):
        yield


def assert_within_capacity(links, slack: float = 1e-9) -> None:
    """No link carries more than its capacity (ROADMAP item 5a)."""
    for link in links:
        assert link.utilization() <= 1.0 + slack, (
            f"link {link.name}: {link.utilization()!r} of capacity allocated"
        )
