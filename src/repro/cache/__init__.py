"""Client-side caching & I/O aggregation subsystem (DESIGN.md §8).

Reusable building blocks wired into the stack at two points:

* **DFuse** (:class:`repro.dfuse.fuse.DFuseMount`): data page cache
  (:class:`PageCache`) plus attr/dentry TTL caches (:class:`TtlCache`),
  like ``dfuse --enable-caching``.
* **DFS file layer** (:class:`repro.dfs.file.DfsFile`): write-behind
  buffering with dirty-extent coalescing (:class:`WriteBehind`) and
  sequential-read detection driving read-ahead (:class:`ReadAhead`).

Cached byte ranges — clean pages, dirty write-behind data, the
read-ahead window — are held in the stack's one interval map,
:class:`repro.daos.vos.extent.ExtentTree` (DESIGN.md §2); this package
adds the policies around it. All of it hangs off one
:class:`CacheConfig`; the default ``none`` mode constructs nothing and
leaves every code path untouched, so disabled runs are byte-identical to
a build without this package.
"""

from repro.cache.attrs import TtlCache
from repro.cache.config import CACHE_MODES, CacheConfig, NODE_MEMORY_FRACTION
from repro.cache.pages import PageCache
from repro.cache.readahead import ReadAhead
from repro.cache.writeback import DIRTY_GAUGE, WriteBehind

__all__ = [
    "CACHE_MODES",
    "CacheConfig",
    "DIRTY_GAUGE",
    "NODE_MEMORY_FRACTION",
    "PageCache",
    "ReadAhead",
    "TtlCache",
    "WriteBehind",
]
