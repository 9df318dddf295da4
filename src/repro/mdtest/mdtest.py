"""The mdtest workload driver."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from repro.ior.env import launch
from repro.ior.config import IorParams


@dataclass
class MdtestParams:
    """Workload: files per rank, optional tiny write per file."""

    files_per_rank: int = 64
    #: bytes written into each file (0 = empty creates, mdtest -w)
    write_bytes: int = 0
    test_dir: str = "/mdtest"
    phases: tuple = ("create", "stat", "remove")


@dataclass
class MdtestResult:
    nprocs: int
    params: MdtestParams
    #: phase -> ops/second (aggregate)
    rates: Dict[str, float] = field(default_factory=dict)


def run_mdtest(
    cluster,
    params: Optional[MdtestParams] = None,
    ppn: int = 16,
    client_nodes: Optional[int] = None,
    limit: float = 1e7,
) -> MdtestResult:
    """Run an mdtest sweep on a DAOS or Lustre cluster."""
    params = params or MdtestParams()
    ior_params = IorParams(api="POSIX", test_dir=params.test_dir,
                           block_size="1m", transfer_size="1m")
    env, world = launch(cluster, ior_params, ppn, client_nodes)
    rates: Dict[str, List[float]] = {}

    def rank_main(ctx) -> Generator:
        storage = yield from env.rank_setup(ctx)
        mount = storage.mount
        rank_dir = f"{params.test_dir}/rank{ctx.rank:05d}"
        yield from mount.mkdir(rank_dir)
        paths = [
            f"{rank_dir}/file.{i:06d}" for i in range(params.files_per_rank)
        ]
        out = {}
        for phase in params.phases:
            yield from ctx.barrier()
            start = ctx.sim.now
            if phase == "create":
                for path in paths:
                    handle = yield from mount.open(path, ("w", "creat"))
                    if params.write_bytes:
                        yield from handle.pwrite(
                            0, b"m" * params.write_bytes
                        )
                    yield from handle.close()
            elif phase == "stat":
                for path in paths:
                    yield from mount.stat(path)
            elif phase == "remove":
                for path in paths:
                    yield from mount.unlink(path)
            else:
                raise ValueError(f"unknown phase {phase!r}")
            end = yield from ctx.allreduce(ctx.sim.now, op=max)
            out[phase] = end - start
        return out

    results = world.run_to_completion(rank_main, limit=limit)
    total_ops = params.files_per_rank * world.nprocs
    phase_rates = {}
    for phase in params.phases:
        seconds = results[0][phase]
        phase_rates[phase] = total_ops / seconds if seconds > 0 else 0.0
    return MdtestResult(world.nprocs, params, phase_rates)
