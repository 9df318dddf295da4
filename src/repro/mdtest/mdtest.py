"""The mdtest workload driver."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List

from repro.ior.env import LIMIT, launch
from repro.ior.config import TEST_DIR, IorParams

#: what each rank does to its files, in order
PHASES = ("create", "stat", "remove")


@dataclass
class MdtestParams:
    """Workload: files per rank, optional tiny write per file."""

    files_per_rank: int = 64
    #: bytes written into each file (0 = empty creates, mdtest -w)
    write_bytes: int = 0


@dataclass
class MdtestResult:
    nprocs: int
    params: MdtestParams
    #: phase -> ops/second (aggregate)
    rates: Dict[str, float]


def run_mdtest(cluster, params: MdtestParams, ppn: int) -> MdtestResult:
    """Run an mdtest sweep on a DAOS or Lustre cluster."""
    ior_params = IorParams(api="POSIX", block_size="1m", transfer_size="1m")
    env, world = launch(cluster, ior_params, ppn)
    rates: Dict[str, List[float]] = {}

    def rank_main(ctx) -> Generator:
        storage = yield from env.rank_setup(ctx)
        mount = storage.mount
        rank_dir = f"{TEST_DIR}/rank{ctx.rank:05d}"
        yield from mount.mkdir(rank_dir)
        paths = [
            f"{rank_dir}/file.{i:06d}" for i in range(params.files_per_rank)
        ]
        out = {}
        for phase in PHASES:
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
            else:  # remove
                for path in paths:
                    yield from mount.unlink(path)
            end = yield from ctx.allreduce(ctx.sim.now, op=max)
            out[phase] = end - start
        return out

    results = world.run_to_completion(rank_main, limit=LIMIT)
    total_ops = params.files_per_rank * world.nprocs
    phase_rates = {}
    for phase in PHASES:
        seconds = results[0][phase]
        phase_rates[phase] = total_ops / seconds if seconds > 0 else 0.0
    return MdtestResult(world.nprocs, params, phase_rates)
