"""The MPI_File layer.

Open/close are collective over the job's communicator (mirroring
``MPI_File_open``); data operations come in independent
(``read_at``/``write_at``) and collective (``read_at_all``/
``write_at_all``) flavours. Each rank holds a POSIX
:class:`~repro.posix.vfs.FileHandle` from its node's mount, as ROMIO's
``ufs`` driver holds a file descriptor.
"""

from __future__ import annotations

from typing import Generator

from repro.errors import MpiError
from repro.mpi.runtime import RankCtx
from repro.mpiio.romio import DEFAULT_CB_BUFFER, collective_read, collective_write
from repro.posix.vfs import FileHandle, FileSystem, rw_flags


class MpiFile:
    """One rank's handle on a (possibly shared) MPI-IO file."""

    def __init__(self, ctx: RankCtx, handle: FileHandle, path: str,
                 shared: bool, cb_buffer: int, aio_depth: int):
        self.ctx = ctx
        self.handle = handle
        self.path = path
        #: whether every rank opened this path; collective calls on a
        #: per-process file exchange nothing (IOR's MPI_COMM_SELF case)
        self.shared = shared
        self.cb_buffer = cb_buffer
        #: event-queue depth for aggregator-side pipelining inside
        #: collective calls (ROMIO double-buffering generalized); <= 1
        #: keeps the sequential aggregator loops
        self.aio_depth = aio_depth
        self._open = True

    # ------------------------------------------------------------- lifecycle
    @classmethod
    def open(
        cls,
        ctx: RankCtx,
        path: str,
        mount: FileSystem,
        create: bool = False,
        trunc: bool = False,
        cb_buffer: int = DEFAULT_CB_BUFFER,
        aio_depth: int = 0,
    ) -> Generator:
        """Task helper (collective): open the file on every rank.

        When all ranks open the same path (shared file), creation is
        performed by rank 0 before the others open, avoiding a create
        storm on one directory entry (ROMIO does the same). When ranks
        open distinct paths (file-per-process jobs, which IOR drives
        with MPI_COMM_SELF), every rank creates its own file."""
        paths = yield from ctx.allgather(path, nbytes=128)
        shared = all(p == paths[0] for p in paths)
        if not shared:
            handle = yield from mount.open(path, rw_flags(create, trunc))
        elif create and ctx.rank == 0:
            handle = yield from mount.open(path, rw_flags(True, trunc))
            yield from ctx.barrier()
        else:
            if create:
                yield from ctx.barrier()
            handle = yield from mount.open(path, rw_flags(False, False))
        return cls(ctx, handle, path, shared, cb_buffer, aio_depth)

    def close(self) -> Generator:
        """Task helper (collective)."""
        self._require_open()
        yield from self.handle.close()
        yield from self.ctx.barrier()
        self._open = False
        return None

    def _require_open(self) -> None:
        if not self._open:
            raise MpiError(f"file {self.path!r} is not open")

    # ------------------------------------------------------------- independent
    def read_at(self, offset: int, length: int) -> Generator:
        self._require_open()
        return (yield from self.handle.pread(offset, length))

    def write_at(self, offset: int, data) -> Generator:
        self._require_open()
        return (yield from self.handle.pwrite(offset, data))

    # ------------------------------------------------------------- collective
    def read_at_all(self, offset: int, length: int) -> Generator:
        if not self.shared:
            return (yield from self.read_at(offset, length))
        self._require_open()
        return (
            yield from collective_read(
                self.ctx, self.handle, offset, length, self.cb_buffer,
                self.aio_depth,
            )
        )

    def write_at_all(self, offset: int, data) -> Generator:
        if not self.shared:
            return (yield from self.write_at(offset, data))
        self._require_open()
        return (
            yield from collective_write(
                self.ctx, self.handle, offset, data, self.cb_buffer,
                self.aio_depth,
            )
        )

    # ------------------------------------------------------------- misc
    def sync(self) -> Generator:
        self._require_open()
        yield from self.handle.fsync()
        return None
