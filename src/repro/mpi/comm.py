"""Communicators and collective operations.

Semantics follow MPI: the *n*-th collective call on each rank of a
communicator matches the *n*-th call on every other rank (call-sequence
matching, no tags), all ranks must participate, and a collective
completes no earlier than the last participant's arrival plus the
modelled communication cost.

Cost models (``p`` ranks, ``s`` payload bytes, ``L`` per-message delay,
``B`` NIC bandwidth):

- barrier: ``ceil(log2 p) * L``  (dissemination)
- allreduce: ``2 * ceil(log2 p) * (L + s/B)`` (binomial reduce, then
  broadcast)
- allgather: ``L*ceil(log2 p) + p*s/B`` (one NIC serializes the
  aggregate volume)
- alltoallv: ``L*p + max_r(bytes_out_r, bytes_in_r)/B`` (per-rank port
  model — each rank is limited by its own NIC in both directions)

Payloads are exchanged for real (deep object graphs included), so
layers above (two-phase I/O, IOR verification) observe correct data.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict

from repro.errors import MpiError
from repro.sim.core import Simulator
from repro.sim.sync import Gate

#: bytes of one small collective message (a barrier or allreduce hop)
MSG_BYTES = 64


class _Collective:
    """Rendezvous state for one matched collective call."""

    __slots__ = ("arrived", "payloads", "gate", "n", "last_arrival")

    def __init__(self, sim: Simulator, n: int):
        self.arrived = 0
        self.payloads: Dict[int, Any] = {}
        self.gate = Gate(sim)
        self.n = n
        self.last_arrival = 0.0


class Comm:
    """An MPI communicator over the simulated world."""

    def __init__(self, world: "object"):
        # ``world`` is an MpiWorld; typed loosely to avoid a cycle.
        self.world = world
        self.sim: Simulator = world.sim
        self.ranks = list(range(world.nprocs))
        self._counters: Dict[int, int] = {r: 0 for r in self.ranks}
        self._pending: Dict[int, _Collective] = {}

    @property
    def size(self) -> int:
        return len(self.ranks)

    # -- cost helpers -----------------------------------------------------
    def _msg_delay(self) -> float:
        fabric = self.world.fabric
        return fabric.base_latency + 2 * fabric.software_overhead + (
            MSG_BYTES / fabric.msg_bandwidth
        )

    def _nic_bw(self) -> float:
        return self.world.min_nic_bw

    def _rounds(self) -> int:
        return max(1, math.ceil(math.log2(max(2, self.size))))

    # -- rendezvous core -------------------------------------------------------
    def _join(self, rank: int, payload: Any, cost_fn: Callable[["_Collective"], float]):
        """Register arrival of ``rank``; returns the collective's gate."""
        if rank not in self._counters:
            raise MpiError(f"rank {rank} not in communicator")
        seq = self._counters[rank]
        self._counters[rank] += 1
        ctx = self._pending.get(seq)
        if ctx is None:
            ctx = self._pending[seq] = _Collective(self.sim, self.size)
        if rank in ctx.payloads:
            raise MpiError(f"rank {rank} joined collective {seq} twice")
        ctx.payloads[rank] = payload
        ctx.arrived += 1
        ctx.last_arrival = self.sim.now
        if ctx.arrived == ctx.n:
            del self._pending[seq]
            self.sim.schedule(cost_fn(ctx), ctx.gate.open, ctx.payloads)
        return ctx

    # -- collectives (generator methods) ------------------------------------------
    def barrier(self, rank: int):
        ctx = self._join(rank, None, lambda c: self._rounds() * self._msg_delay())
        yield ctx.gate
        return None

    def allgather(self, rank: int, value: Any, nbytes: int = 64):
        cost = lambda c: (  # noqa: E731
            self._rounds() * self._msg_delay()
            + self.size * nbytes / self._nic_bw()
        )
        ctx = self._join(rank, value, cost)
        payloads = yield ctx.gate
        return [payloads[r] for r in self.ranks]

    def allreduce(self, rank: int, value: Any, op: Callable[[Any, Any], Any]):
        cost = lambda c: 2 * self._rounds() * self._msg_delay()  # noqa: E731
        ctx = self._join(rank, value, cost)
        payloads = yield ctx.gate
        acc = None
        for r in self.ranks:
            acc = payloads[r] if acc is None else op(acc, payloads[r])
        return acc

    def alltoallv(self, rank: int, sendmap: Dict[int, Any],
                  nbytes_map: Dict[int, int]):
        """Each rank supplies ``{dst_rank: payload}`` plus per-dst sizes;
        returns ``{src_rank: payload}`` of what was addressed to it."""

        def cost(ctx: _Collective) -> float:
            bw = self._nic_bw()
            worst = 0.0
            out_bytes = {r: 0 for r in self.ranks}
            in_bytes = {r: 0 for r in self.ranks}
            for src, (smap, sizes) in ctx.payloads.items():
                for dst, size in sizes.items():
                    out_bytes[src] += size
                    in_bytes[dst] += size
            for r in self.ranks:
                worst = max(worst, out_bytes[r], in_bytes[r])
            return self.size * self._msg_delay() / 4 + worst / bw

        ctx = self._join(rank, (sendmap, nbytes_map), cost)
        payloads = yield ctx.gate
        received = {}
        for src, (smap, _sizes) in payloads.items():
            if rank in smap:
                received[src] = smap[rank]
        return received
