"""The abstract I/O interface IOR drives, plus the backend registry.

Backends register themselves declaratively::

    class MyBackend(Backend):
        name = "MYAPI"
        supports_async = True

    register_backend(MyBackend.name, MyBackend)

CLI ``-a`` choices and :class:`~repro.ior.config.IorParams` validation
are derived from the registry and each backend's capability flags —
adding an interface never touches the driver, the CLI or the config
module (AIORI's table of function pointers, made a registry).
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Tuple, Type

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


# ----------------------------------------------------------------- registry

_REGISTRY: Dict[str, Type[Backend]] = {}


def register_backend(name: str, cls: Type[Backend]) -> Type[Backend]:
    """Add a backend class to the api registry under ``name``.
    Duplicate names are rejected — two backends claiming one api is
    always a bug, and shadowing would make ``-a`` ambiguous."""
    if not name or name == "?":
        raise ValueError(f"backend {cls.__name__} must set a name")
    if name in _REGISTRY:
        raise ValueError(
            f"backend api {name!r} is already registered "
            f"(by {_REGISTRY[name].__name__})"
        )
    if not (isinstance(cls, type) and issubclass(cls, Backend)):
        raise ValueError(f"backend {name!r} must be a Backend subclass")
    _REGISTRY[name] = cls
    return cls


def unregister_backend(name: str) -> None:
    """Remove a registered api (tests and out-of-tree plugins only)."""
    _REGISTRY.pop(name, None)


def available_apis() -> Tuple[str, ...]:
    """Registered api names, in registration order (the CLI -a choices)."""
    return tuple(_REGISTRY)


def backend_class(name: str) -> Type[Backend]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"api must be one of {tuple(_REGISTRY)}, got {name!r}"
        ) from None


def make_backend(params, ctx, storage) -> Backend:
    return backend_class(params.api)(params, ctx, storage)
