"""Bandwidth allocation policy behind :class:`~repro.network.flows.FlowNetwork`.

The network owns links, flows, transfers and the sync-and-reschedule
loop; *which rate each flow gets* is an :class:`Allocator`'s business.
The protocol is psim's ``BandwidthAllocator`` (register_rate /
compute_allocations / get_allocated_rate) restated for flows that cross
several weighted links: *register* calls only mark what a change made
dirty, :meth:`~Allocator.compute` re-solves what the dirty set can
affect, :meth:`~Allocator.rate` reads an allocation. An allocator never
touches ``flow.rate`` — the network adopts the new rate only after it
has brought in-flight transfers up to date under the old one — and
nothing here imports :mod:`repro.sim`.

:class:`MaxMinAllocator`, the one shipped policy, is *equal-rate
progressive filling*: all unfixed flows grow at the same rate; when a
link saturates, the flows crossing it are fixed; when a flow reaches its
cap, it is fixed; repeat. Only the connected component a change can
reach is re-solved, by the scalar strategy here or the numpy one in
:mod:`repro.network.dense` according to the component's size; both
produce the same floats (DESIGN.md section 11).
"""

from __future__ import annotations

import logging
import math
from operator import attrgetter
from typing import Dict, Optional, Protocol, Tuple

from repro.errors import NetworkError
from repro.network.dense import EPS, UNBOUNDED_RATE, DenseRows

_LOG = logging.getLogger(__name__)


class Allocator(Protocol):
    """What :class:`~repro.network.flows.FlowNetwork` needs of a policy.

    Links expose ``capacity`` and ``_flows`` (flow -> weight, in open
    order); flows expose ``links`` and ``weights`` (parallel tuples, each
    link once), ``cap`` and ``_serial`` (open order). The network keeps
    ``Link._flows`` current *before* it calls :meth:`add_flow` /
    :meth:`remove_flow`.
    """

    #: progressive-filling runs that fixed no flow on a positive step
    #: and left the rest at rate 0 (a floating-point corner)
    forced_exits: int

    def add_flow(self, flow) -> None: ...
    def remove_flow(self, flow) -> None: ...
    def touch_flow(self, flow) -> None: ...  # its cap changed
    def touch_link(self, link) -> None: ...  # its capacity changed

    def compute(self) -> Tuple[list, list]:
        """Re-solve what the changes registered since the last call can
        affect. Returns ``(flows, links)``: the flows whose rate was
        recomputed, in open order, and the links whose utilisation may
        have changed (including links a closed flow left idle)."""
        ...

    def rate(self, flow) -> float: ...


class MaxMinAllocator:
    """Max-min fair rates, re-solved per dirty component (module doc)."""

    #: largest component the scalar strategy takes, in incidence cells
    #: (the sum of its flows' link counts); past it the dense strategy's
    #: fixed cost is the smaller
    scalar_cells = 320
    #: most links one flow may cross: each filling round scans every
    #: link, which is where a vector operation beats a loop first
    scalar_links = 64

    def __init__(self) -> None:
        self.forced_exits = 0
        #: exact work counts the per-op tests gate on: solves taken by
        #: each strategy, and incidence rows ever materialised
        self.scalar_solves = 0
        self.dense_solves = 0
        self.dense_rows_built = 0
        self._rates: Dict[object, float] = {}
        # insertion-ordered, so gauge sampling order is reproducible
        self._dirty_links: Dict[object, None] = {}
        self._dirty_flows: Dict[object, None] = {}
        self._dense: Optional[DenseRows] = None
        #: live flows the dense strategy has no row for yet
        self._unrowed: Dict[object, bool] = {}

    # -- register -----------------------------------------------------------
    def touch_link(self, link) -> None:
        self._dirty_links[link] = None
        if self._dense is not None:
            self._dense.capacity_changed(link)

    def add_flow(self, flow) -> None:
        self._rates[flow] = 0.0
        self._unrowed[flow] = True
        self._dirty_flows[flow] = None

    def remove_flow(self, flow) -> None:
        del self._rates[flow]
        if not self._unrowed.pop(flow, False):
            self._dense.remove_flow(flow)
        self._dirty_flows.pop(flow, None)
        dirty = self._dirty_links
        for link in flow.links:
            dirty[link] = None

    def touch_flow(self, flow) -> None:
        if flow not in self._rates:
            return  # already removed: nothing its cap can move
        self._dirty_flows[flow] = None
        if self._dense is not None:
            self._dense.cap_changed(flow)

    def rate(self, flow) -> float:
        return self._rates[flow]

    # -- compute ------------------------------------------------------------
    def compute(self) -> Tuple[list, list]:
        dirty_links = self._dirty_links
        dirty_flows = self._dirty_flows
        if not dirty_links and not dirty_flows:
            return [], []
        flows = self._walk()
        if flows is not None:
            links = self._fill(flows) if flows else []
        else:
            flows, links = self._solve_dense()
        # links a closed flow left idle: no component holds them, but
        # their utilisation just dropped to zero
        links.extend([link for link in dirty_links if not link._flows])
        dirty_links.clear()
        dirty_flows.clear()
        return flows, links

    def _walk(self) -> Optional[list]:
        """The dirty component's flows in open order, or ``None`` once it
        is seen to exceed :attr:`scalar_cells` or :attr:`scalar_links`.

        A component's cells are the sum of its links' flow counts, so the
        walk charges each link's ``len(_flows)`` as it discovers the link
        — before visiting any of those flows — and a large component is
        recognised from its first few links."""
        budget = self.scalar_cells
        max_links = self.scalar_links
        if len(self._dirty_links) > max_links:
            return None  # a flow that wide just closed
        links = dict(self._dirty_links)
        cells = sum([len(link._flows) for link in links])
        todo = list(links)
        flows: Dict[object, None] = {}
        admit = self._dirty_flows
        while True:
            for flow in admit:
                if flow in flows:
                    continue
                if len(flow.links) > max_links:
                    return None
                flows[flow] = None
                for link in flow.links:
                    if link not in links:
                        links[link] = None
                        todo.append(link)
                        cells += len(link._flows)
            if cells > budget:
                return None
            if not todo:
                break
            held = todo.pop()._flows
            admit = () if held.keys() <= flows.keys() else held
        return sorted(flows, key=attrgetter("_serial"))

    def _fill(self, flows: list) -> list:
        """Scalar progressive filling over one small component; returns
        its links in first-touch order. Every float operation here has
        its twin, in the same order, in :meth:`DenseRows.solve`."""
        self.scalar_solves += 1
        rates = self._rates
        inf = math.inf
        denom: Dict[object, float] = {}
        for flow in flows:
            rates[flow] = 0.0
            for link, weight in zip(flow.links, flow.weights):
                denom[link] = denom.get(link, 0.0) + weight
        links = list(denom)
        remaining = {link: link.capacity for link in links}
        unfixed = dict.fromkeys(flows)
        level = 0.0  # common rate of all unfixed flows
        guard = len(flows) + len(links) + 2
        while unfixed:
            guard -= 1
            if guard < 0:
                raise NetworkError("progressive filling failed to converge")
            # next link saturation point; strict < keeps the first
            # minimum in first-touch order
            delta_link = inf
            bottleneck = None
            for link, d in denom.items():
                if d > EPS:
                    step = remaining[link] / d
                    if step < delta_link:
                        delta_link = step
                        bottleneck = link
            # next cap crossing
            delta_cap = inf
            for flow in unfixed:
                cap = flow.cap
                if cap is not None and cap - level < delta_cap:
                    delta_cap = cap - level
            delta = delta_link if delta_link < delta_cap else delta_cap
            if delta == inf:
                # no binding constraint at all (no links, no caps)
                for flow in unfixed:
                    rates[flow] = UNBOUNDED_RATE
                break
            if delta < 0:
                delta = 0.0
            level += delta

            # caps first, then the bottleneck's flows, each in open order
            newly: Dict[object, None] = {}
            if delta_cap <= delta_link:
                for flow in unfixed:
                    cap = flow.cap
                    if cap is not None and cap - level <= EPS:
                        newly[flow] = None
            if delta_link <= delta_cap and bottleneck is not None:
                for flow in bottleneck._flows:
                    if flow in unfixed:
                        newly[flow] = None
            if not newly:
                # numerical corner: force-fix the bottleneck link's flows
                if bottleneck is not None:
                    newly = {f: None for f in bottleneck._flows if f in unfixed}
                if not newly:
                    self._forced_exit(level, len(unfixed))
                    break
            if len(newly) == len(unfixed):
                # terminal batch: every remaining flow fixes at this
                # level; capacities and denominators only feed later rounds
                for flow in newly:
                    rates[flow] = level
                break
            for link, d in denom.items():
                remaining[link] -= delta * d
            for flow in newly:
                del unfixed[flow]
                rates[flow] = level
                for link, weight in zip(flow.links, flow.weights):
                    left = denom[link] - weight
                    denom[link] = 0.0 if left < EPS else left
        return links

    def _solve_dense(self) -> Tuple[list, list]:
        dense = self._dense
        if dense is None:
            dense = self._dense = DenseRows()
        for flow in self._unrowed:
            dense.add_flow(flow)
        self.dense_rows_built += len(self._unrowed)
        self._unrowed.clear()
        flows, links, rates, stuck = dense.solve(self._dirty_flows,
                                                 self._dirty_links)
        if flows:
            self.dense_solves += 1
            self._rates.update(zip(flows, rates))
            if stuck is not None:
                self._forced_exit(*stuck)
        return flows, links

    def _forced_exit(self, level: float, n_unfixed: int) -> None:
        """Filling found a positive step but could fix no flow (the step
        rounds to a level that crosses no cap and saturates no link).
        The still-unfixed flows keep rate 0; transfers on them stall
        until a later solve. Counted and logged, never silent."""
        self.forced_exits += 1
        _LOG.warning(
            "progressive filling forced exit at level %.6g with %d unfixed "
            "flow(s); their rates stay 0 until the next reallocation",
            level, n_unfixed,
        )
