"""The abstract I/O interface IOR drives (IOR's AIORI function table).

Each backend declares its capability flags; CLI ``-a`` choices and
:class:`~repro.ior.config.IorParams` validation are derived from the
table in :mod:`repro.ior.backends` and those flags.
"""

from __future__ import annotations

from typing import Callable, Generator


class Backend:
    """Per-rank I/O interface. All methods are task helpers."""

    name = "?"
    # ------------------------------------------------------- capability flags
    #: whether queue depths > 1 are meaningful for this api at all (the
    #: --aio-depth validation; :meth:`check_params` adds cross-field
    #: constraints)
    supports_async = False
    #: whether the *runner* pipelines transfers through a per-rank event
    #: queue; False where the api pipelines inside its own calls
    #: (collective MPI-IO's aggregator queues)
    pipelined = False
    #: whether ``-c`` (collective I/O) is meaningful for this api
    supports_collective = False
    #: whether the api needs a DAOS container (rejected under --lustre)
    needs_daos = False

    def __init__(self, params, ctx, storage):
        self.params = params
        self.ctx = ctx
        self.storage = storage

    @classmethod
    def check_params(cls, params) -> None:
        """Hook: backend-specific cross-field validation, called from
        ``IorParams.__post_init__`` after the flag-derived checks."""
        return None

    def open(self, path: str, create: bool) -> Generator:
        """Open (creating when asked) the test file; returns a handle."""
        raise NotImplementedError

    def write(self, handle, offset: int, payload) -> Generator:
        raise NotImplementedError

    def read(self, handle, offset: int, nbytes: int) -> Generator:
        raise NotImplementedError

    def fsync(self, handle) -> Generator:
        raise NotImplementedError

    def close(self, handle) -> Generator:
        raise NotImplementedError

    def _open_shared(self, create: bool, make: Callable[[], Generator],
                     attach: Callable[[], Generator]) -> Generator:
        """The create rule every namespace-backed api shares: file per
        process creates everywhere; a shared file is created by rank 0
        (``make()``) and opened by the rest (``attach()``) after a
        barrier; a non-creating open attaches."""
        if not create:
            return (yield from attach())
        if self.params.file_per_proc:
            return (yield from make())
        if self.ctx.rank == 0:
            handle = yield from make()
            yield from self.ctx.barrier()
            return handle
        yield from self.ctx.barrier()
        return (yield from attach())
