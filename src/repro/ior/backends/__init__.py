"""IOR backends (IOR calls these AIORI modules).

:data:`BACKENDS` is the api table: one entry per backend class, in the
``-a`` choices order the CLI shows.
"""

from typing import Tuple, Type

from repro.ior.backends.base import Backend
from repro.ior.backends.daos_array import DaosArrayBackend
from repro.ior.backends.dfs import DfsBackend
from repro.ior.backends.hdf5 import Hdf5Backend
from repro.ior.backends.hdf5_daos import Hdf5DaosBackend
from repro.ior.backends.mpiio import MpiioBackend
from repro.ior.backends.posix import PosixBackend

BACKENDS = {cls.name: cls for cls in (
    PosixBackend, DfsBackend, MpiioBackend, Hdf5Backend, DaosArrayBackend,
    Hdf5DaosBackend,
)}


def available_apis() -> Tuple[str, ...]:
    """The api names, in table order (the CLI -a choices)."""
    return tuple(BACKENDS)


def backend_class(name: str) -> Type[Backend]:
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"api must be one of {available_apis()}, got {name!r}"
        ) from None


__all__ = ["Backend", "BACKENDS", "available_apis", "backend_class"]
