"""The IOR SPMD driver.

``run_ior`` boots the workload on a cluster: prepares the storage
environment (fresh container / test directory), launches one simulated
MPI rank per process, runs the write and read phases with IOR's barrier
and timing discipline, and reduces the result exactly as IOR does —
phase time = last rank's completion minus the synchronized start.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.daos.eq import EventQueue
from repro.ior.backends import backend_class
from repro.ior.config import IorParams
from repro.ior.env import RankStorage, launch
from repro.ior.pattern import make_payload, verify_payload
from repro.ior.report import IorResult, LatencySummary, PhaseResult
from repro.obs.breakdown import phase_layer_breakdown
from repro.obs.tracer import span_of


def run_ior(
    cluster,
    params: IorParams,
    ppn: int = 16,
    client_nodes: Optional[int] = None,
    limit: float = 1e7,
) -> IorResult:
    """Run one IOR invocation on a booted cluster; returns the result.

    ``cluster`` may be a DAOS :class:`~repro.cluster.builder.Cluster` or
    a :class:`~repro.cluster.builder.LustreCluster` (POSIX/MPIIO/HDF5
    apis only for the latter).
    """
    env, world = launch(cluster, params, ppn, client_nodes)
    rank_results = world.run_to_completion(
        lambda ctx: _rank_main(ctx, params, env), limit=limit
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
                result.latency.append(
                    LatencySummary(
                        op=op,
                        rank=rank,
                        count=hist.count,
                        mean=hist.mean,
                        p50=hist.p50,
                        p95=hist.p95,
                        p99=hist.p99,
                    )
                )
    timeline = getattr(sim, "timeline", None)
    if timeline is not None:
        result.timeline = timeline.store


def _rank_main(ctx, params: IorParams, env) -> Generator:
    storage: RankStorage = yield from env.rank_setup(ctx)
    backend = backend_class(params.api)(params, ctx, storage)
    phases: List[PhaseResult] = []

    for repetition in range(params.repetitions):
        if params.write:
            phase = yield from _phase_write(ctx, params, backend, repetition)
            phases.append(phase)
        if params.read:
            phase = yield from _phase_read(ctx, params, backend, repetition)
            phases.append(phase)
    return phases


def _use_async(params: IorParams, backend) -> bool:
    # apis that pipeline internally (MPIIO/HDF5 collective aggregators)
    # report supports_async but not pipelined; the runner's per-rank
    # event queue only drives backends whose ops pipeline end to end
    return params.aio_queue_depth > 0 and backend.pipelined


def _reap(ctx, op: str, event) -> None:
    """Account one reaped event; re-raises the operation's error, which
    is when a failed async op surfaces (like checking ``ev.ev_error``)."""
    event.result
    metrics = ctx.sim.metrics
    if metrics is not None:
        metrics.observe(f"ior.{op}.latency{{rank={ctx.rank}}}", event.elapsed)
        metrics.observe(f"ior.{op}.latency", event.elapsed)


def _phase_write(ctx, params: IorParams, backend, repetition: int) -> Generator:
    path = params.file_path(ctx.rank)
    sim = ctx.sim
    metrics = sim.metrics
    handle = yield from backend.open(path, create=True)
    yield from ctx.barrier()
    start = sim.now
    if _use_async(params, backend):
        yield from _pipelined_write(ctx, params, backend, handle, repetition)
    else:
        for segment in range(params.segments):
            for transfer in range(params.transfers_per_block):
                offset = params.offset(ctx.size, ctx.rank, segment, transfer)
                payload = make_payload(path, offset, params.transfer_size)
                op_start = sim.now
                with span_of(sim, "ior.write", "ior", ctx.node.name,
                             rank=ctx.rank, rep=repetition, offset=offset):
                    yield from backend.write(handle, offset, payload)
                if metrics is not None:
                    elapsed = sim.now - op_start
                    metrics.observe(
                        f"ior.write.latency{{rank={ctx.rank}}}", elapsed
                    )
                    metrics.observe("ior.write.latency", elapsed)
    if params.fsync:
        yield from backend.fsync(handle)
    yield from backend.close(handle)
    end = yield from ctx.allreduce(ctx.sim.now, op=max)
    return PhaseResult(
        op="write",
        repetition=repetition,
        seconds=end - start,
        nbytes=params.total_bytes(ctx.size),
    )


def _pipelined_write(ctx, params: IorParams, backend, handle,
                     repetition: int) -> Generator:
    """Async write loop: keep up to ``aio_queue_depth`` transfers in
    flight through an event queue, reaping completions opportunistically
    and draining the tail before the phase's fsync/close."""
    path = params.file_path(ctx.rank)
    eq = EventQueue(ctx.sim, depth=params.aio_queue_depth,
                    name=f"ior.r{ctx.rank}.w{repetition}")
    for segment in range(params.segments):
        for transfer in range(params.transfers_per_block):
            offset = params.offset(ctx.size, ctx.rank, segment, transfer)
            payload = make_payload(path, offset, params.transfer_size)
            yield from backend.write_nb(eq, handle, offset, payload,
                                        repetition)
            for event in eq.try_reap():
                _reap(ctx, "write", event)
    for event in (yield from eq.drain()):
        _reap(ctx, "write", event)
    return None


def _phase_read(ctx, params: IorParams, backend, repetition: int) -> Generator:
    # -C: read the block written by rank+1 (and, file-per-process, that
    # rank's file), defeating any locality between the phases.
    read_rank = (ctx.rank + 1) % ctx.size if params.reorder_tasks else ctx.rank
    path = params.file_path(read_rank)
    handle = yield from backend.open(path, create=False)
    errors = 0
    sim = ctx.sim
    metrics = sim.metrics
    yield from ctx.barrier()
    start = sim.now
    if _use_async(params, backend):
        errors = yield from _pipelined_read(
            ctx, params, backend, handle, repetition, read_rank, path
        )
    else:
        for segment in range(params.segments):
            for transfer in range(params.transfers_per_block):
                offset = params.offset(ctx.size, read_rank, segment, transfer)
                op_start = sim.now
                with span_of(sim, "ior.read", "ior", ctx.node.name,
                             rank=ctx.rank, rep=repetition, offset=offset):
                    payload = yield from backend.read(
                        handle, offset, params.transfer_size
                    )
                if metrics is not None:
                    elapsed = sim.now - op_start
                    metrics.observe(
                        f"ior.read.latency{{rank={ctx.rank}}}", elapsed
                    )
                    metrics.observe("ior.read.latency", elapsed)
                if params.verify:
                    if (
                        payload.nbytes != params.transfer_size
                        or not verify_payload(path, offset, payload)
                    ):
                        errors += 1
    yield from backend.close(handle)
    end = yield from ctx.allreduce(ctx.sim.now, op=max)
    total_errors = yield from ctx.allreduce(errors, op=lambda a, b: a + b)
    return PhaseResult(
        op="read",
        repetition=repetition,
        seconds=end - start,
        nbytes=params.total_bytes(ctx.size),
        verify_errors=total_errors,
    )


def _pipelined_read(ctx, params: IorParams, backend, handle,
                    repetition: int, read_rank: int, path: str) -> Generator:
    """Async read loop; verification happens at reap time, once the
    payload is available on the event."""
    eq = EventQueue(ctx.sim, depth=params.aio_queue_depth,
                    name=f"ior.r{ctx.rank}.r{repetition}")
    offsets = {}
    errors = 0

    def check(event) -> int:
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
            event = yield from backend.read_nb(
                eq, handle, offset, params.transfer_size, repetition
            )
            offsets[event.eid] = offset
            for done in eq.try_reap():
                errors += check(done)
    for done in (yield from eq.drain()):
        errors += check(done)
    return errors
