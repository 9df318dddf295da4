"""HDF5-lite: a self-describing byte-dataset file format with pluggable VFDs.

Structurally modelled on HDF5 (not byte-compatible — see DESIGN.md §8.4):

- a fixed-location superblock pointing at the metadata catalog and
  tracking EOF and the *alignment* file-creation property,
- contiguous 1-D byte datasets addressed by byte offset — the one
  shape IOR's HDF5 backends create (no N-d dataspaces, datatypes or
  attributes),
- virtual file drivers: ``sec2`` (any POSIX-like mount — a DFuse mount
  in the paper) and ``mpio`` (collective I/O over MPI-IO),
- virtual object layers (VOL, mirroring HDF5 1.12's plugin seam): the
  *native* connector (the format above, through a VFD) and the *daos*
  connector, which maps datasets onto DAOS arrays and metadata onto KV
  objects with no POSIX layer at all (see :mod:`repro.hdf5.vol`).

Performance-relevant fidelity: with the default ``alignment=1`` the raw
data lands at unaligned offsets interleaved with metadata, and the sec2
driver pays H5Dread/H5Dwrite staging through HDF5's internal conversion/
sieve buffering (a memcpy-bound client-side pipeline) — the mechanism
behind "HDF5 using the DFuse mount gives much lower performance" in the
paper. Setting ``alignment`` to the filesystem's preferred I/O size
restores direct I/O (ablation A4), and the ``mpio`` VFD bypasses the
staging entirely via collective buffering (the shared-file result).
"""

from repro.hdf5.file import H5File
from repro.hdf5.vfd import MpioVfd, Sec2Vfd
from repro.hdf5.vol import DaosVol, NativeVol, Vol

__all__ = [
    "H5File", "Sec2Vfd", "MpioVfd", "Vol", "NativeVol", "DaosVol",
]
