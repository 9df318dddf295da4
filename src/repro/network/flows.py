"""Max-min fair fluid-flow bandwidth model: links, flows, transfers.

Model
-----

- A :class:`Link` has a capacity in bytes/s (a NIC direction, a storage
  target's read or write media channel, an optional switch backplane).
- A :class:`Flow` traverses a set of links, each with a *consumption
  weight*: a flow running at rate ``r`` consumes ``r * w`` bytes/s of the
  capacity of each link ``l`` with weight ``w``. A stream striped evenly
  over ``k`` targets has weight ``1/k`` on each target link and weight
  ``1`` on its client NIC.
- A flow may carry an intrinsic *rate cap* modelling serial per-operation
  overhead (a stream issuing ``x``-byte ops with ``o`` seconds of fixed
  cost per op can never exceed ``x / o`` even on an idle network — the
  cap used by the stack is ``x / (x/r_link + o)`` folded in by callers).

Division of labour
------------------

:class:`FlowNetwork` keeps the links, flows and in-flight transfers;
*which* rate each flow gets is the business of the allocator behind it
(:mod:`repro.network.allocator`). Rates change in one place,
:meth:`FlowNetwork._reallocate`, and only when the flow population
changes, so steady phases — exactly what bulk-I/O benchmarks produce —
cost almost nothing. In-flight :class:`Transfer` objects integrate their
remaining bytes across rate changes, so completion times are exact under
the fluid model.
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import NetworkError
from repro.network.allocator import EPS, Allocator, MaxMinAllocator
from repro.sim.core import Simulator
from repro.sim.sync import Gate


class Link:
    """A capacity-constrained resource (bytes/s)."""

    __slots__ = ("name", "capacity", "_flows")

    def __init__(self, name: str, capacity: float):
        if capacity <= 0:
            raise NetworkError(f"link {name!r} needs positive capacity")
        self.name = name
        self.capacity = float(capacity)
        self._flows: Dict["Flow", float] = {}

    def utilization(self) -> float:
        """Fraction of capacity consumed by current allocations."""
        used = sum(flow.rate * weight for flow, weight in self._flows.items())
        return used / self.capacity

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Link {self.name} {self.capacity:.3g}B/s x{len(self._flows)}>"


class Flow:
    """An active flow; ``rate`` is kept current by the network.
    ``links`` and ``weights`` are parallel tuples, each link once."""

    __slots__ = ("network", "links", "weights", "cap", "rate", "_transfers",
                 "label", "_serial")

    def __init__(
        self,
        network: "FlowNetwork",
        links: Tuple[Link, ...],
        weights: Tuple[float, ...],
        cap: Optional[float],
        label: str = "",
    ):
        self.network = network
        self.links = links
        self.weights = weights
        self.cap = cap
        self.rate = 0.0
        self._transfers: List["Transfer"] = []
        self.label = label
        self._serial = 0  # assigned by FlowNetwork.open; orders solves

    def transfer(self, nbytes: float) -> "Transfer":
        """Start moving ``nbytes`` on this flow; yield the result to wait."""
        return self.network._start_transfer(self, nbytes)

    def set_cap(self, cap: Optional[float]) -> None:
        """Change the intrinsic rate cap and reallocate."""
        self.cap = cap
        self.network._allocator.touch_flow(self)
        self.network._reallocate()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Flow {self.label or id(self)} rate={self.rate:.3g}>"


class Transfer:
    """In-flight byte movement on a flow; awaitable (yields completion time).

    Integrates the flow's rate across reallocations so the finish time is
    the exact fluid-model completion time.
    """

    __slots__ = ("flow", "nbytes", "remaining", "last_t", "gate",
                 "_generation", "done")

    def __init__(self, flow: Flow, nbytes: float, sim: Simulator):
        self.flow = flow
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.last_t = sim.now
        self.gate = Gate(sim)
        self._generation = 0
        self.done = False

    def _subscribe(self, callback) -> None:
        self.gate._subscribe(callback)


def _add_moved(moved: float, flow: Flow, now: float) -> float:
    """``moved`` plus the bytes ``flow``'s unfinished transfers have
    moved by ``now``."""
    rate = flow.rate
    for transfer in flow._transfers:
        left = transfer.remaining - rate * (now - transfer.last_t)
        moved += transfer.nbytes - (left if left > 0 else 0.0)
    return moved


class FlowNetwork:
    """Links, flows and transfers; rates come from ``allocator``.

    ``allocator`` is the bandwidth policy (an
    :class:`~repro.network.allocator.Allocator`); the default is a fresh
    :class:`~repro.network.allocator.MaxMinAllocator`. Tests inject the
    global-solve oracle here.
    """

    def __init__(self, sim: Simulator, allocator: Optional[Allocator] = None):
        self.sim = sim
        self._links: Dict[str, Link] = {}
        #: live flows in open order (a dict for O(1) close)
        self._flows: Dict[Flow, None] = {}
        self._allocator = MaxMinAllocator() if allocator is None else allocator
        self.reallocations = 0
        #: cumulative wall-clock seconds spent in reallocation
        self.solver_seconds = 0.0
        #: cumulative flows re-solved across reallocations (less than
        #: flows x reallocations when untouched components are skipped)
        self.solved_flows = 0
        self._next_serial = 0
        #: bytes moved by transfers a close stranded (they never complete)
        self._stranded = 0.0

    # -- topology ------------------------------------------------------------
    def add_link(self, name: str, capacity: float) -> Link:
        if name in self._links:
            raise NetworkError(f"duplicate link {name!r}")
        link = Link(name, capacity)
        self._links[name] = link
        return link

    def set_link_capacity(self, link: Link, capacity: float) -> None:
        """Change a link's capacity and reallocate (fault injection:
        degraded media channel, throttled NIC). In-flight transfers are
        synced under the old rates first, so completion times stay exact."""
        if capacity <= 0:
            raise NetworkError(
                f"link {link.name!r} needs positive capacity, got {capacity}"
            )
        link.capacity = float(capacity)
        self._allocator.touch_link(link)
        self._reallocate()

    # -- flows ---------------------------------------------------------------
    def open(
        self,
        links: Iterable[Tuple[Link, float]],
        cap: Optional[float] = None,
        label: str = "",
    ) -> Flow:
        """Register a new active flow and recompute the allocation."""
        if cap is not None and cap <= 0:
            raise NetworkError(f"flow cap must be positive, got {cap}")
        # a link listed twice is crossed once, at the sum of its weights;
        # a link listed once keeps the caller's float (``float(w) is w``)
        weights: Dict[Link, float] = {}
        for link, weight in links:
            if weight > 0:
                held = weights.get(link)
                weights[link] = (float(weight) if held is None
                                 else held + weight)
        flow = Flow(self, tuple(weights), tuple(weights.values()), cap, label)
        self._next_serial += 1
        flow._serial = self._next_serial
        for link, weight in weights.items():
            link._flows[flow] = weight
        self._flows[flow] = None
        self._allocator.add_flow(flow)
        self._reallocate()
        return flow

    def close(self, flow: Flow) -> None:
        """Deregister a flow (any unfinished transfers on it stall forever)."""
        if flow not in self._flows:
            return
        if flow._transfers:
            # bank what the stranded transfers moved, so the lead of
            # fabric.xfer.bytes never falls
            self._stranded = _add_moved(self._stranded, flow, self.sim.now)
        del self._flows[flow]
        for link in flow.links:
            del link._flows[flow]
        flow.rate = 0.0
        self._allocator.remove_flow(flow)
        self._reallocate()

    # -- transfers -------------------------------------------------------------
    def _start_transfer(self, flow: Flow, nbytes: float) -> Transfer:
        if nbytes < 0:
            raise NetworkError(f"negative transfer size {nbytes}")
        transfer = Transfer(flow, nbytes, self.sim)
        if nbytes == 0:
            transfer.done = True
            transfer.gate.open(self.sim.now)
            return transfer
        flow._transfers.append(transfer)
        metrics = self.sim.metrics
        if metrics is not None:
            # Progress/liveness pair for the stall watchdog: inflight
            # stays >0 across a close() that strands transfers, which is
            # exactly the silent-hang signature the watchdog looks for.
            metrics.gauge("fabric.xfer.inflight").add(self.sim.now, 1)
            # counted on completion, rated by the scraper as they move
            metrics.counter("fabric.xfer.bytes").lead = self._moved
        transfer._generation += 1
        if flow.rate > EPS:  # else stalled; a future reallocation reschedules
            self.sim.schedule(transfer.remaining / flow.rate, self._complete,
                              transfer, transfer._generation)
        return transfer

    def _complete(self, transfer: Transfer, generation: int) -> None:
        if transfer.done or generation != transfer._generation:
            return  # stale event from before a reallocation
        # A matching generation means no reallocation has touched the flow
        # since this completion was scheduled, so the event time is exact.
        # (Recomputing the residual here instead would hit floating-point
        # underflow: at sim times ~1 s a sub-microsecond transfer leaves a
        # residual below the time resolution and the reschedule never
        # advances the clock.)
        transfer.remaining = 0.0
        transfer.last_t = self.sim.now
        transfer.done = True
        transfer.flow._transfers.remove(transfer)
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.incr("fabric.xfer.bytes", transfer.nbytes)
            metrics.gauge("fabric.xfer.inflight").add(self.sim.now, -1)
        transfer.gate.open(self.sim.now)

    def _moved(self, now: float) -> float:
        """Bytes the unfinished transfers have moved by ``now``: those on
        live flows, plus what closed flows stranded."""
        moved = self._stranded
        for flow in self._flows:
            moved = _add_moved(moved, flow, now)
        return moved

    # -- allocation --------------------------------------------------------------
    def _reallocate(self) -> None:
        """Re-solve what the last mutation can affect and adopt the result:
        the single place rates change."""
        self.reallocations += 1
        t0 = time.perf_counter()
        allocator = self._allocator
        exits = allocator.forced_exits
        flows, links = allocator.compute()
        if flows:
            self.solved_flows += len(flows)
            sim = self.sim
            now = sim.now
            heap = sim._heap
            push = heapq.heappush
            complete = self._complete
            new_rate = allocator.rate
            for flow in flows:
                old = flow.rate
                rate = flow.rate = new_rate(flow)
                for transfer in flow._transfers:
                    # bring the transfer up to date under the *old* rate ...
                    elapsed = now - transfer.last_t
                    if elapsed > 0:
                        transfer.remaining -= old * elapsed
                        if transfer.remaining < 0:
                            transfer.remaining = 0.0
                        transfer.last_t = now
                    # ... and reschedule it under the new one
                    # (Simulator.schedule, inlined; a stalled flow waits
                    # for a later reallocation)
                    transfer._generation += 1
                    if rate > EPS:
                        sim._seq += 1
                        push(heap, (
                            now + transfer.remaining / rate,
                            sim._seq,
                            complete,
                            (transfer, transfer._generation),
                        ))
        self.solver_seconds += time.perf_counter() - t0

        # Per-edge utilisation timelines: every reallocation is a change
        # point of the piecewise-constant fluid rates, so sampling here
        # captures the exact utilisation curve of each affected link —
        # including the drop to zero when a link's last flow closes.
        metrics = self.sim.metrics
        if metrics is not None:
            now = self.sim.now
            for link in links:
                gauge = metrics.gauge(
                    f"fabric.link.utilization{{link={link.name}}}"
                )
                gauge.set(now, link.utilization())
            if allocator.forced_exits != exits:
                metrics.incr("fabric.solver.forced_exit")
