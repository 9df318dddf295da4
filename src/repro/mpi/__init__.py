"""Simulated MPI runtime.

SPMD rank functions are ordinary generator functions taking a
:class:`~repro.mpi.runtime.RankCtx`; the :class:`~repro.mpi.runtime.MpiWorld`
launches one simulated task per rank, placed across client nodes with a
fixed processes-per-node, exactly like ``mpiexec -ppn``. The four
collectives IOR and ROMIO use (barrier, allgather, allreduce, alltoallv)
exchange real Python payloads with latency/bandwidth cost models
(log-tree for barrier/allreduce, linear terms for the data-sized ones)
patterned after mpi4py's lower-case object interface.
"""

from repro.mpi.comm import Comm
from repro.mpi.runtime import MpiWorld, RankCtx

__all__ = ["Comm", "MpiWorld", "RankCtx"]
