"""A Lustre-like parallel filesystem — the paper's implicit baseline.

The conclusions contrast DAOS's "shared-file ≈ file-per-process" result
with "the performance standard parallel filesystems provide"; this
package provides that standard filesystem so the contrast is measurable:

- a single metadata server (:mod:`repro.lustre.mds`) resolving the whole
  namespace (the classic MDS bottleneck for create/stat storms),
- OSTs with RAID-backed bandwidth served through object storage servers,
- the LDLM distributed extent-lock manager (:mod:`repro.lustre.ldlm`)
  whose lock ping-pong is what collapses shared-file write bandwidth,
- a striping client (:mod:`repro.lustre.client`) implementing the same
  :class:`~repro.posix.vfs.FileSystem` interface as DFuse, so IOR runs
  on either unchanged.

Client write-back caching is not modelled (I/O is write-through, the
behaviour of ``O_DIRECT``/IOR ``-B`` runs); see DESIGN.md §8.5.
"""

from repro.lustre.fs import LustreFs
from repro.lustre.client import LustreMount

__all__ = ["LustreFs", "LustreMount"]
