"""The abstract I/O interface IOR drives (IOR's AIORI function table).

Each backend declares its capability flags; CLI ``-a`` choices and
:class:`~repro.ior.config.IorParams` validation are derived from the
table in :mod:`repro.ior.backends` and those flags.
"""

from __future__ import annotations

from typing import Callable, Generator

from repro.obs.tracer import span_of


class Backend:
    """Per-rank I/O interface. All methods are task helpers."""

    name = "?"
    # ------------------------------------------------------- capability flags
    #: whether queue depths > 1 are meaningful for this api at all (the
    #: --aio-depth validation; see also :meth:`check_params` for
    #: cross-field constraints and :attr:`pipelined` for whether the
    #: *runner* drives transfers through an event queue)
    supports_async = False
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

    @property
    def pipelined(self) -> bool:
        """Whether the runner's phase loops should pipeline transfers
        through a per-rank event queue. Defaults to the async capability;
        backends that pipeline *internally* (collective MPI-IO's
        aggregator queues) override this to False."""
        return self.supports_async

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

    # -------------------------------------------------- async (event queue)
    def write_nb(self, eq, handle, offset: int, payload,
                 repetition: int = 0) -> Generator:
        """Task helper: launch the write on event queue ``eq`` (blocking
        while its in-flight window is full); returns the Event."""
        return self._submit(eq, "write", repetition, offset,
                            self.write(handle, offset, payload))

    def read_nb(self, eq, handle, offset: int, nbytes: int,
                repetition: int = 0) -> Generator:
        """Task helper: launch the read on event queue ``eq``; returns
        the Event (result is the payload once reaped)."""
        return self._submit(eq, "read", repetition, offset,
                            self.read(handle, offset, nbytes))

    def _submit(self, eq, kind: str, repetition: int, offset: int,
                op: Generator) -> Generator:
        if not self.pipelined:
            raise NotImplementedError(f"{self.name} backend is blocking-only")

        ctx = self.ctx

        def spanned() -> Generator:
            # opened inside the event's own task, so the operation's
            # spans nest under it (the tracer keeps per-task span stacks
            # — the submitter's stack must stay clean)
            with span_of(ctx.sim, f"ior.{kind}", "ior", ctx.node.name,
                         rank=ctx.rank, rep=repetition, offset=offset,
                         nb=True):
                return (yield from op)

        return (yield from eq.submit(
            spanned(), name=f"{self.name}.{kind}@{offset}"
        ))
