"""Client-side bulk I/O streams.

An :class:`IoStream` is the timing vehicle for array reads/writes: one
fluid-network flow per (object handle, direction), crossing the client
NIC, each touched server NIC, each engine media channel and each target
service link with consumption weights proportional to the fraction of
traffic headed there (uniform across the object's layout targets). Each
I/O operation then charges:

    per-op overhead  (client CPU + RPC round trip + engine CPU
                      + first-writer VOS tree creation, the widest piece
                      when chunks fan out in parallel)
  + bulk time        (bytes moved through the flow at its fair-share rate)

and finally applies the real VOS mutations/reads. Keeping the flow open
across ops, and pumping its batches by callbacks, is what makes a
blocking op on an open stream cost five heap events and no task instead
of a global reallocation per transfer — the key to simulating hundreds
of concurrent IOR processes in reasonable wall time.

Approximation (documented in DESIGN.md §6.2): the flow reserves its share
for the duration of the op including the overhead portion, so highly
overhead-dominated streams slightly over-reserve bandwidth.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Generator, List, Optional, Sequence

from repro.errors import DerDataLoss, DerTimedOut
from repro.network.fabric import stream_moves
from repro.network.flows import Flow
from repro.obs.tracer import span_of
from repro.sim.sync import Gate


class IoPiece:
    """One chunk-shard piece of an I/O op."""

    __slots__ = ("tid", "nbytes", "apply_fn")

    def __init__(self, tid: int, nbytes: int, apply_fn: Callable[[], object]):
        self.tid = tid
        self.nbytes = nbytes
        self.apply_fn = apply_fn


class _Batch:
    """Bytes from concurrent ops coalesced into one wire transfer."""

    __slots__ = ("nbytes", "ops", "gate")

    def __init__(self, sim):
        self.nbytes = 0
        self.ops = 0
        self.gate = Gate(sim)


class IoStream:
    """A registered bulk-I/O session toward a fixed set of targets."""

    def __init__(self, client, targets: Sequence[int], direction: str):
        if direction not in ("read", "write"):
            raise ValueError(f"bad direction {direction!r}")
        if not targets:
            raise DerDataLoss("stream has no targets (all excluded?)")
        self.client = client
        self.system = client.system
        self.sim = client.sim
        self.direction = direction
        self.targets = list(targets)
        self._flow: Optional[Flow] = None
        self._last_target: Optional[int] = None
        #: batch accumulating while the wire is busy (None when idle)
        self._pending: Optional[_Batch] = None
        #: a pump callback chain is draining batches onto the flow
        self._pumping = False
        #: ops currently inside :meth:`io` (pipelined handles overlap them)
        self._active = 0
        #: close() arrived; the flow goes once no op or batch is left
        self._closing = False

    # ------------------------------------------------------------- lifecycle
    def open(self) -> None:
        if self._flow is not None:
            return
        hws = [self.system.target(tid).hw for tid in self.targets]
        self._flow = self.client.fabric.open_bulk_flow(
            stream_moves(self.client.node.addr, hws, self.direction),
            label=f"{self.client.name}:{self.direction}",
        )

    def close(self) -> None:
        """Release the flow. Deferred while pipelined ops are still in
        flight (a concurrent op refreshing the pool map must not stall a
        sibling's transfer forever): the last finisher closes."""
        self._closing = True
        self._maybe_close()

    def _maybe_close(self) -> None:
        if self._closing and self._active == 0 and not self._pumping:
            self._closing = False
            if self._flow is not None:
                self.client.fabric.flownet.close(self._flow)
                self._flow = None

    @property
    def rate(self) -> float:
        return self._flow.rate if self._flow is not None else 0.0

    # ------------------------------------------------------------- bulk wire
    def _bulk(self, nbytes: int) -> Generator:
        """Task helper: move ``nbytes`` over the stream's flow.

        Concurrent ops on one stream coalesce: while a wire transfer is
        in flight, arriving ops pool their bytes into the next batch and
        the pump issues one flow transfer per batch — pipelined handles
        get batched wire transfers instead of a per-op round trip (and
        never multiply the flow's bandwidth by issuing parallel
        transfers on it). With one op in flight the batch is that op
        alone and timing matches the direct transfer exactly.
        """
        if nbytes <= 0:
            return
        if self._pending is None:
            self._pending = _Batch(self.sim)
        batch = self._pending
        batch.nbytes += nbytes
        batch.ops += 1
        if not self._pumping:
            # No timeline-scraper revival (Simulator.spawn's): the
            # scraper parks only on a drained heap, and this runs inside
            # a popped event.
            self._pumping = True
            self.sim.wake(self._pump)
        yield batch.gate

    def _pump(self, landed: Optional[_Batch] = None, _value=None) -> None:
        """Callback: release the ops of the batch that just ``landed``,
        then put the pending batch on the wire, to call back here when
        it lands; with none pending the stream goes idle."""
        if landed is not None:
            landed.gate.open(self.sim.now)
        batch = self._pending
        if batch is None:
            self._pumping = False
            self._maybe_close()
            return
        self._pending = None
        metrics = self.sim.metrics
        if metrics is not None:
            dir_label = f"{{dir={self.direction}}}"
            metrics.incr(f"client.stream.batches{dir_label}")
            metrics.incr(f"client.stream.batched_ops{dir_label}", batch.ops)
            if batch.ops > 1:
                metrics.incr(
                    f"client.stream.coalesced_bytes{dir_label}", batch.nbytes
                )
        self._flow.transfer(batch.nbytes)._subscribe(
            partial(self._pump, batch)
        )

    # ------------------------------------------------------------- one op
    def io(self, pieces: List[IoPiece], context, map_version=None) -> Generator:
        """Task helper: perform one I/O op made of parallel pieces.

        ``context`` is the (pool, cont, oid) tuple used for first-writer
        tree accounting. ``map_version`` is the client's pool-map version;
        writes are fenced against every engine they touch *before* any
        payload is applied (DER_STALE, see Engine.check_map_version), so
        a stale writer never partially lands an op. Returns the list of
        piece results in order.
        """
        if self._flow is None:
            self.open()
        self._active += 1
        metrics = self.sim.metrics
        if metrics is not None:
            # Aggregate liveness gauge: >0 whenever any client op is in
            # flight — the guard side of the default stall rule. Unlike
            # fabric.xfer.inflight it also covers ops burning RPC
            # timeouts against a crashed engine (no wire transfer).
            metrics.gauge("client.io.inflight").add(self.sim.now, 1)
        try:
            return (yield from self._io_once(pieces, context, map_version))
        finally:
            self._active -= 1
            if metrics is not None:
                metrics.gauge("client.io.inflight").add(self.sim.now, -1)
            self._maybe_close()

    def _io_once(self, pieces: List[IoPiece], context,
                 map_version=None) -> Generator:
        fabric = self.client.fabric
        node_spec = self.client.node.spec
        rtt = 2.0 * (fabric.base_latency + 2 * fabric.software_overhead)
        write = self.direction == "write"
        pool, cont, oid = context

        # Bulk I/O is RPC-carried: a crashed engine answers nothing, so
        # the op burns the caller's RPC timeout and fails — same contract
        # as the control-plane RpcServer unavailability path.
        for piece in pieces:
            engine = self.system.target(piece.tid).engine
            if not engine.up:
                yield rtt + engine.server.unavailable_delay
                raise DerTimedOut(
                    f"{self.direction} to target {piece.tid}: "
                    f"{engine.name} is down"
                )
        if write and map_version is not None:
            fenced = set()
            for piece in pieces:
                engine = self.system.target(piece.tid).engine
                if engine.name not in fenced:
                    fenced.add(engine.name)
                    engine.check_map_version(pool, map_version)

        overhead = node_spec.client_cpu_per_op
        widest = 0.0
        seen = set()
        for piece in pieces:
            ref = self.system.target(piece.tid)
            cost = ref.engine.spec.per_rpc_cpu
            if piece.tid not in seen:
                seen.add(piece.tid)
                cost += rtt
                cost += ref.engine.tree_create_cost(
                    pool, cont, oid, ref.local_tid, write
                )
            widest = max(widest, cost)
        overhead += widest
        # Lost per-target locality when the stream hops targets between
        # consecutive ops AND spans more targets than the per-handle
        # session cache covers (SX pays this almost every op; S1..S4 never).
        primary = pieces[0].tid if pieces else None
        if primary is not None:
            ref = self.system.target(primary)
            spec = ref.engine.spec
            if (
                len(self.targets) > spec.locality_window
                and self._last_target is not None
                and primary != self._last_target
            ):
                overhead += spec.target_switch_cost
            self._last_target = primary

        total = sum(p.nbytes for p in pieces)
        # The op decomposes into its RPC-fanout, bulk-flow and per-piece
        # VOS spans (no-ops when tracing is off).
        sim = self.sim
        if overhead > 0:
            with span_of(sim, "rpc.fanout", "rpc", None,
                         targets=len(seen), widest=widest):
                yield overhead
        if total > 0:
            with span_of(sim, "fabric.flow", "fabric", None, nbytes=total,
                         rate=self.rate, direction=self.direction):
                yield from self._bulk(total)
        results = []
        for piece in pieces:
            node = self.system.target(piece.tid).engine.slot.node.name
            with span_of(sim, "vos.apply", "vos", node,
                         tid=piece.tid, nbytes=piece.nbytes):
                results.append(piece.apply_fn())
        return results
