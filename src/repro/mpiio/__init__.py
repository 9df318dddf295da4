"""MPI-IO: independent and collective file I/O over a POSIX mount.

The shape follows ROMIO's ``ufs`` path: a thin ``MPI_File`` layer
(:mod:`repro.mpiio.file`) holding each rank's handle on any
:class:`~repro.posix.vfs.FileSystem` (a DFuse mount in the paper, a
Lustre client in the baseline), plus two-phase collective buffering
(:mod:`repro.mpiio.romio`) with aggregator selection and file-domain
partitioning.
"""

from repro.mpiio.file import MpiFile

__all__ = ["MpiFile"]
