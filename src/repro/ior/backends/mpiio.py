"""MPI-IO backend over the DFuse mount (ROMIO ufs driver), matching the
paper's "MPI-IO" lines. ``collective=True`` switches the data calls to
two-phase collective buffering; ``--aio-depth N`` (collective only)
pipelines the aggregator-side storage calls through an event queue
inside each collective call."""

from __future__ import annotations

from typing import Generator

from repro.ior.backends.base import Backend
from repro.mpiio import MpiFile
from repro.obs.tracer import span_of


class MpiioBackend(Backend):
    name = "MPIIO"
    supports_collective = True
    # async depth applies to the collective path: aggregators pipeline
    # their cb-buffer transfers inside each write_at_all/read_at_all
    supports_async = True

    @classmethod
    def check_params(cls, params) -> None:
        if params.aio_queue_depth > 1 and not params.collective:
            raise ValueError(
                "MPIIO async pipelining rides the two-phase aggregators; "
                "it requires collective I/O (-c)"
            )

    @property
    def pipelined(self) -> bool:
        # pipelining happens inside the collective call, not the runner
        return False

    def open(self, path: str, create: bool) -> Generator:
        handle = yield from MpiFile.open(
            self.ctx, path, self.storage.mount, create=create,
            cb_buffer=self.params.cb_buffer,
            aio_depth=(
                self.params.aio_queue_depth if self.params.collective else 0
            ),
        )
        return handle

    def write(self, handle, offset: int, payload) -> Generator:
        collective = self.params.collective
        with span_of(
            self.ctx.sim,
            "mpiio.write_at_all" if collective else "mpiio.write_at",
            "mpiio", self.ctx.node.name,
            offset=offset, nbytes=payload.nbytes,
        ):
            if collective:
                return (yield from handle.write_at_all(offset, payload))
            return (yield from handle.write_at(offset, payload))

    def read(self, handle, offset: int, nbytes: int) -> Generator:
        collective = self.params.collective
        with span_of(
            self.ctx.sim,
            "mpiio.read_at_all" if collective else "mpiio.read_at",
            "mpiio", self.ctx.node.name,
            offset=offset, nbytes=nbytes,
        ):
            if collective:
                return (yield from handle.read_at_all(offset, nbytes))
            return (yield from handle.read_at(offset, nbytes))

    def fsync(self, handle) -> Generator:
        yield from handle.sync()
        return None

    def close(self, handle) -> Generator:
        yield from handle.close()
        return None
