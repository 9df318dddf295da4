"""The IOR SPMD driver.

``run_ior`` launches one simulated MPI rank per process on fresh
storage, runs each phase as one transfer loop over a queue (an event
queue at ``--aio-depth`` >= 1 on a pipelined api, else its blocking
twin) and reduces the result exactly as IOR does: phase time = last
rank's completion minus the synchronized start.
"""

from __future__ import annotations

from typing import Generator, List

from repro.daos.eq import EventQueue, Inline
from repro.ior.backends import backend_class
from repro.ior.config import IorParams
from repro.ior.env import LIMIT, RankStorage, launch
from repro.ior.pattern import make_payload, verify_payload
from repro.ior.report import IorResult, LatencySummary, PhaseResult
from repro.obs.breakdown import phase_layer_breakdown
from repro.obs.tracer import span_of


def run_ior(cluster, params: IorParams, ppn: int = 16) -> IorResult:
    """Run one IOR invocation on a booted cluster; returns the result.

    ``cluster`` may be a DAOS :class:`~repro.cluster.builder.Cluster` or
    a :class:`~repro.cluster.builder.LustreCluster` (POSIX/MPIIO/HDF5
    apis only for the latter).
    """
    env, world = launch(cluster, params, ppn)
    rank_results = world.run_to_completion(
        lambda ctx: _rank_main(ctx, params, env), limit=LIMIT
    )
    result = IorResult(
        params=params,
        nprocs=world.nprocs,
        client_nodes=len(world.nodes),
    )
    result.phases = rank_results[0]
    _attach_observability(result, cluster.sim, world.nprocs)
    return result


def _attach_observability(result: IorResult, sim, nprocs: int) -> None:
    """Decorate the result with trace/metrics-derived detail when the
    cluster runs observed (no-op otherwise)."""
    tracer = getattr(sim, "tracer", None)
    if tracer is not None:
        for phase in result.phases:
            phase.layer_seconds = phase_layer_breakdown(
                tracer.spans, phase.op, phase.repetition, nprocs, phase.seconds
            )
    metrics = getattr(sim, "metrics", None)
    if metrics is not None:
        for op in ("write", "read"):
            for rank in range(nprocs):
                hist = metrics.histograms.get(
                    f"ior.{op}.latency{{rank={rank}}}"
                )
                if hist is None or hist.count == 0:
                    continue
                stats = hist.summary()
                result.latency.append(
                    LatencySummary(
                        op=op,
                        rank=rank,
                        count=stats["count"],
                        mean=stats["mean"],
                        p50=stats["p50"],
                        p95=stats["p95"],
                        p99=stats["p99"],
                    )
                )
    timeline = getattr(sim, "timeline", None)
    if timeline is not None:
        result.timeline = timeline.store


def _rank_main(ctx, params: IorParams, env) -> Generator:
    storage: RankStorage = yield from env.rank_setup(ctx)
    backend = backend_class(params.api)(params, ctx, storage)
    # apis that pipeline inside their own calls (the collective
    # aggregators) are not pipelined here: their transfers run inline
    depth = params.aio_queue_depth if backend.pipelined else 0
    phases: List[PhaseResult] = []

    for repetition in range(params.repetitions):
        if params.write:
            phase = yield from _phase_write(ctx, params, backend, depth,
                                            repetition)
            phases.append(phase)
        if params.read:
            phase = yield from _phase_read(ctx, params, backend, depth,
                                           repetition)
            phases.append(phase)
    return phases


def _queue(ctx, depth: int, name: str):
    """The phase's queue: an event queue keeping up to ``depth``
    transfers in flight, or the blocking twin at depth 0."""
    if depth:
        return EventQueue(ctx.sim, depth=depth, name=name)
    return Inline(ctx.sim)


def _transfer(ctx, eq, backend, kind: str, repetition: int, offset: int,
              op: Generator) -> Generator:
    """Hand one transfer to ``eq``: returns the task helper that submits
    it (a plain call, so the blocking loop pays only the submit frame)."""
    if ctx.sim.tracer is not None:
        op = _spanned(ctx, kind, repetition, offset, op,
                      isinstance(eq, EventQueue))
    return eq.submit(op, name=f"{backend.name}.{kind}@{offset}")


def _spanned(ctx, kind: str, repetition: int, offset: int, op: Generator,
             queued: bool) -> Generator:
    # opened inside the op, so under an event queue the span nests in the
    # event's own task (the tracer keeps per-task span stacks)
    nb = {"nb": True} if queued else {}
    with span_of(ctx.sim, f"ior.{kind}", "ior", ctx.node.name,
                 rank=ctx.rank, rep=repetition, offset=offset, **nb):
        return (yield from op)


def _reap(ctx, op: str, event) -> None:
    """Account one reaped event; re-raises the operation's error, which
    is when a failed queued op surfaces (like checking ``ev.ev_error``)."""
    event.result
    metrics = ctx.sim.metrics
    if metrics is not None:
        metrics.observe(f"ior.{op}.latency{{rank={ctx.rank}}}", event.elapsed)
        metrics.observe(f"ior.{op}.latency", event.elapsed)


def _phase_write(ctx, params: IorParams, backend, depth: int,
                 repetition: int) -> Generator:
    path = params.file_path(ctx.rank)
    handle = yield from backend.open(path, create=True)
    yield from ctx.barrier()
    start = ctx.sim.now
    eq = _queue(ctx, depth, f"ior.r{ctx.rank}.w{repetition}")
    for segment in range(params.segments):
        for transfer in range(params.transfers_per_block):
            offset = params.offset(ctx.size, ctx.rank, segment, transfer)
            payload = make_payload(path, offset, params.transfer_size)
            yield from _transfer(ctx, eq, backend, "write", repetition,
                                 offset, backend.write(handle, offset, payload))
            for event in eq.try_reap():
                _reap(ctx, "write", event)
    for event in (yield from eq.drain()):
        _reap(ctx, "write", event)
    if params.fsync:
        yield from backend.fsync(handle)
    yield from backend.close(handle)
    end = yield from ctx.allreduce(ctx.sim.now, op=max)
    return PhaseResult(
        op="write",
        repetition=repetition,
        start=start,
        seconds=end - start,
        nbytes=params.total_bytes(ctx.size),
    )


def _phase_read(ctx, params: IorParams, backend, depth: int,
                repetition: int) -> Generator:
    # -C: read the block written by rank+1 (and, file-per-process, that
    # rank's file), defeating any locality between the phases.
    read_rank = (ctx.rank + 1) % ctx.size if params.reorder_tasks else ctx.rank
    path = params.file_path(read_rank)
    handle = yield from backend.open(path, create=False)
    yield from ctx.barrier()
    start = ctx.sim.now
    eq = _queue(ctx, depth, f"ior.r{ctx.rank}.r{repetition}")
    offsets = {}
    errors = 0

    def check(event) -> int:
        # verification happens at reap time, once the payload is held
        _reap(ctx, "read", event)
        offset = offsets.pop(event.eid)
        if not params.verify:
            return 0
        payload = event.result
        if payload.nbytes != params.transfer_size or not verify_payload(
            path, offset, payload
        ):
            return 1
        return 0

    for segment in range(params.segments):
        for transfer in range(params.transfers_per_block):
            offset = params.offset(ctx.size, read_rank, segment, transfer)
            event = yield from _transfer(
                ctx, eq, backend, "read", repetition, offset,
                backend.read(handle, offset, params.transfer_size),
            )
            offsets[event.eid] = offset
            for done in eq.try_reap():
                errors += check(done)
    for done in (yield from eq.drain()):
        errors += check(done)
    yield from backend.close(handle)
    end = yield from ctx.allreduce(ctx.sim.now, op=max)
    total_errors = yield from ctx.allreduce(errors, op=lambda a, b: a + b)
    return PhaseResult(
        op="read",
        repetition=repetition,
        start=start,
        seconds=end - start,
        nbytes=params.total_bytes(ctx.size),
        verify_errors=total_errors,
    )
