"""Dense strategy of the max-min allocator: numpy over an incidence matrix.

A flow x link weight matrix (rows are flow slots, columns are link
slots; both grow geometrically and freed rows are reused) turns the two
expensive steps of a large solve into array operations: the dirty set
is expanded to its connected component by a matrix-vector fixpoint
instead of a graph walk, and progressive filling runs on whole vectors, folding per-link sums and decrements in the scalar
strategy's order so both produce the same floats for the same component.
:class:`~repro.network.allocator.MaxMinAllocator` creates this object
the first time a component is too large for its scalar strategy and
hands it rows lazily (:meth:`DenseRows.add_flow`).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from repro.errors import NetworkError

#: denominators and cap headroom below this are zero
EPS = 1e-9

#: rate of a flow with no binding constraint (no links, no cap):
#: effectively instantaneous in the fluid model
UNBOUNDED_RATE = 1e18


class DenseRows:
    """Incidence matrix of the registered flows plus the dense solve."""

    _INITIAL = 64

    def __init__(self) -> None:
        self._W = np.zeros((self._INITIAL, self._INITIAL))
        self._caps = np.full(self._INITIAL, np.inf)
        self._serials = np.zeros(self._INITIAL, dtype=np.int64)
        self._linkcap = np.zeros(self._INITIAL)
        self._row_of: Dict[object, int] = {}
        self._flow_of_row: List[Optional[object]] = [None] * self._INITIAL
        self._free_rows: List[int] = []
        self._nrows = 0
        self._col_of: Dict[object, int] = {}
        self._link_of_col: List[object] = []
        #: per flow, the global col ids of its links, in link-list order
        self._cols_of: Dict[object, np.ndarray] = {}

    # -- registry -----------------------------------------------------------
    def _grow_rows(self) -> None:
        more = self._W.shape[0]  # double
        self._W = np.pad(self._W, ((0, more), (0, 0)))
        self._caps = np.pad(self._caps, (0, more), constant_values=np.inf)
        self._serials = np.pad(self._serials, (0, more))
        self._flow_of_row.extend([None] * more)

    def _grow_cols(self) -> None:
        more = self._W.shape[1]  # double
        self._W = np.pad(self._W, ((0, 0), (0, more)))
        self._linkcap = np.pad(self._linkcap, (0, more))

    def add_flow(self, flow) -> None:
        """Give ``flow`` a row, and a column to each link it is the first
        to bring."""
        if self._free_rows:
            row = self._free_rows.pop()
        else:
            row = self._nrows
            self._nrows += 1
            if row >= self._W.shape[0]:
                self._grow_rows()
        self._row_of[flow] = row
        col_of = self._col_of
        cols = []
        for link in flow.links:
            col = col_of.get(link)
            if col is None:
                col = col_of[link] = len(self._link_of_col)
                if col >= self._W.shape[1]:
                    self._grow_cols()
                self._link_of_col.append(link)
                self._linkcap[col] = link.capacity
            cols.append(col)
        cols = self._cols_of[flow] = np.array(cols, dtype=np.intp)
        if cols.size:
            self._W[row, cols] = flow.weights
        self._caps[row] = np.inf if flow.cap is None else flow.cap
        self._serials[row] = flow._serial
        self._flow_of_row[row] = flow

    def remove_flow(self, flow) -> None:
        row = self._row_of.pop(flow)
        cols = self._cols_of.pop(flow)
        if cols.size:
            self._W[row, cols] = 0.0
        self._caps[row] = np.inf
        self._serials[row] = 0
        self._flow_of_row[row] = None
        self._free_rows.append(row)

    def cap_changed(self, flow) -> None:
        row = self._row_of.get(flow)
        if row is not None:
            self._caps[row] = np.inf if flow.cap is None else flow.cap

    def capacity_changed(self, link) -> None:
        col = self._col_of.get(link)
        if col is not None:
            self._linkcap[col] = link.capacity

    # -- solve ----------------------------------------------------------------
    def _component(self, dirty_flows, dirty_links) -> np.ndarray:
        """Rows, in open order, of the live flows reachable from the
        dirty set; every dirty flow has a row (the caller added it)."""
        nr = self._nrows
        nc = len(self._link_of_col)
        live = len(self._row_of)
        fmask = np.zeros(nr, dtype=bool)
        lmask = np.zeros(nc, dtype=bool)
        for flow in dirty_flows:
            fmask[self._row_of[flow]] = True
            lmask[self._cols_of[flow]] = True
        for link in dirty_links:
            col = self._col_of.get(link)
            if col is not None:  # else no flow with a row crosses it
                lmask[col] = True
        # Fixpoint over the incidence matrix (freed rows are zeroed, so
        # only live flows join). A round that adds no flow adds no link
        # either, and a mask that already holds every live row cannot
        # grow: both end the search without the closing link product.
        Wv = self._W[:nr, :nc]
        count = -1
        while live:
            np.logical_or(fmask, Wv @ lmask > 0.0, out=fmask)
            grown = int(np.count_nonzero(fmask))
            if grown == live or grown == count:
                break
            count = grown
            np.logical_or(lmask, fmask @ Wv > 0.0, out=lmask)
        rows = np.nonzero(fmask)[0]
        return rows[np.argsort(self._serials[rows])]

    def _first_touch(self, flows: list) -> np.ndarray:
        """Columns in first-touch order over ``flows``: the scalar
        strategy's denominator-dict insertion order, which the
        bottleneck argmin tie-break depends on."""
        allc = np.concatenate([self._cols_of[flow] for flow in flows])
        # first-occurrence position of every col: reversed fancy
        # assignment makes the earliest write win
        first = np.full(len(self._link_of_col), -1, dtype=np.intp)
        first[allc[::-1]] = np.arange(allc.size - 1, -1, -1)
        hit = np.nonzero(first >= 0)[0]
        return hit[np.argsort(first[hit])]

    def solve(self, dirty_flows, dirty_links):
        """Progressive filling over the dirty set's component.

        Returns ``(flows, links, rates, stuck)``: the component's flows
        and links in solve order (empty when no live flow is reachable),
        one rate per flow, and — when filling found a positive step that
        fixes no flow — the ``(level, unfixed count)`` of the forced
        exit, else ``None``.
        """
        rows = self._component(dirty_flows, dirty_links)
        if not rows.size:
            return [], [], [], None
        flows = [self._flow_of_row[r] for r in rows.tolist()]
        cols = self._first_touch(flows)
        links = [self._link_of_col[c] for c in cols.tolist()]
        n = len(flows)
        m = len(links)
        inf = math.inf
        if m:
            W = self._W.take(rows, axis=0).take(cols, axis=1)
            # reducing along axis 0 folds the rows in order, matching
            # the scalar strategy's per-link flow-order summation
            denom = np.add.reduce(W, axis=0)
            remaining = self._linkcap[cols]
            step = np.empty(m)
        else:
            W = denom = remaining = step = None
        # working copy: rows go to +inf as their flows fix, so the plain
        # (C fast-path) caps.min() is exactly the masked min-over-unfixed,
        # and `caps - level <= EPS` self-excludes fixed rows
        caps = self._caps[rows]
        rates = np.zeros(n)
        unfixed = np.ones(n, dtype=bool)
        n_unfixed = n
        level = 0.0
        guard = 0
        stuck = None
        while n_unfixed:
            guard += 1
            if guard > n + m + 2:
                raise NetworkError("progressive filling failed to converge")
            if m:
                step.fill(inf)
                np.divide(remaining, denom, out=step, where=denom > EPS)
                j = int(step.argmin())  # first minimum: dict-order tie-break
                delta_link = float(step[j])
                bottleneck = j if delta_link != inf else None
            else:
                delta_link = inf
                bottleneck = None
            # min over unfixed of (cap - level): rounding is monotone, so
            # subtracting after the min matches the scalar strategy's
            # per-flow subtract-then-min float result exactly
            delta_cap = float(caps.min()) - level
            delta = delta_link if delta_link < delta_cap else delta_cap
            if delta == inf:
                rates[unfixed] = UNBOUNDED_RATE
                break
            if delta < 0:
                delta = 0.0
            level += delta

            # caps first, then the bottleneck's flows, each in open order
            # and each flow once
            newly = np.empty(0, dtype=np.intp)
            if delta_cap <= delta_link:
                newly = np.nonzero(caps - level <= EPS)[0]
            if delta_link <= delta_cap and bottleneck is not None:
                hit = np.nonzero(unfixed & (W[:, bottleneck] > 0.0))[0]
                if newly.size and hit.size:
                    hit = hit[~np.isin(hit, newly)]
                newly = np.concatenate((newly, hit)) if newly.size else hit
            if newly.size == 0:
                # numerical corner: force-fix the bottleneck link's flows
                if bottleneck is not None:
                    newly = np.nonzero(unfixed & (W[:, bottleneck] > 0.0))[0]
                if newly.size == 0:
                    stuck = (level, n_unfixed)
                    break
            rates[newly] = level
            if newly.size == n_unfixed:
                # terminal batch: every remaining flow fixes at this
                # level; capacities and denominators only feed later rounds
                break
            unfixed[newly] = False
            n_unfixed -= newly.size
            caps[newly] = inf
            if m:
                remaining -= delta * denom
                # The scalar strategy takes each fixed flow's weights off
                # the denominators one flow at a time, clamping below EPS
                # to zero as it goes. A link that ever drops below EPS is
                # never read again (denominators only fall), so one
                # in-order row fold and one closing clamp leave every
                # live denominator with the same float.
                denom = np.subtract.reduce(
                    np.concatenate((denom[None, :], W.take(newly, axis=0))),
                    axis=0,
                )
                denom[denom < EPS] = 0.0
        return flows, links, rates.tolist(), stuck
