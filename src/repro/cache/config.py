"""Cache configuration and the consistency-mode contract.

One :class:`CacheConfig` drives both wiring points of the caching tier
(DESIGN.md §8.2): the DFuse mount (data page cache, attr/dentry TTL
caches) and the DFS file layer (write-behind buffering, read-ahead).

Modes mirror dfuse's caching switches:

``none``
    Every call passes straight through.  This is the default, and it is
    *zero-cost*: no cache object is even constructed, so simulated
    timings are byte-identical to a build without the subsystem
    (pinned by ``tests/cache/test_cache_determinism.py``).
``readonly``
    Data page cache + attr/dentry TTL caches + sequential read-ahead.
    Writes pass through synchronously (and invalidate overlapping
    cached extents), like ``dfuse --enable-wb-cache=false``.
``writeback``
    Everything in ``readonly`` plus write-behind buffering with
    dirty-extent coalescing; open-to-close semantics (flush on
    ``close``/``fsync``/watermark).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Union

from repro.hardware.specs import NodeSpec
from repro.units import KiB, MiB, parse_size

CACHE_MODES = ("none", "readonly", "writeback")

#: Fraction of a client node's DRAM the page-cache tier may use, split
#: evenly across the processes sharing the node (like the kernel page
#: cache competing with ppn application processes).
NODE_MEMORY_FRACTION = 0.25
#: attribute (stat) cache TTL, seconds (dfuse --attr-time)
ATTR_TTL = 1.0
#: dentry (path -> inode) cache TTL, seconds (dfuse --dentry-time)
DENTRY_TTL = 1.0
#: per-file dirty bytes that trigger a background-style flush
WB_WATERMARK = 16 * MiB
#: largest single coalesced write issued by a flush
WB_MAX_EXTENT = 64 * MiB
#: bytes prefetched ahead of a detected sequential stream
READAHEAD_WINDOW = 8 * MiB
#: consecutive sequential ops before read-ahead engages
READAHEAD_MIN_RUN = 2


@dataclass(frozen=True)
class CacheConfig:
    """One mounted cache instance: its mode and what the node gives it."""

    #: none | readonly | writeback (the consistency mode, see module doc)
    mode: str = "none"
    #: page-cache budget in bytes; 0 = derive from the node's hardware
    #: model via :meth:`resolve` (NODE_MEMORY_FRACTION of DRAM / ppn)
    capacity: Union[int, str] = 0
    #: DRAM copy bandwidth charged for cache hits and buffered writes:
    #: the node's, set by :meth:`resolve` (a default node's until then)
    copy_bw: float = field(init=False, default=NodeSpec.memory_copy_bw)

    def __post_init__(self) -> None:
        if self.mode not in CACHE_MODES:
            raise ValueError(
                f"cache mode must be one of {CACHE_MODES}, got {self.mode!r}"
            )
        object.__setattr__(self, "capacity", parse_size(self.capacity))

    # ------------------------------------------------------------- predicates
    @property
    def enabled(self) -> bool:
        return self.mode != "none"

    @property
    def writeback(self) -> bool:
        return self.mode == "writeback"

    # ------------------------------------------------------------- sizing
    def resolve(self, node_spec, ppn: int = 1) -> "CacheConfig":
        """This config on a node: the node's copy bandwidth, and a zero
        ``capacity`` filled from the node's memory model (each of the
        ``ppn`` processes sharing the node gets an equal slice of the
        NODE_MEMORY_FRACTION page-cache pool)."""
        budget = int(node_spec.memory * NODE_MEMORY_FRACTION) // max(1, ppn)
        resolved = replace(
            self, capacity=self.capacity or max(budget, 64 * KiB))
        object.__setattr__(resolved, "copy_bw", node_spec.memory_copy_bw)
        return resolved

    def copy_cost(self, nbytes: int) -> float:
        """Simulated seconds to memcpy ``nbytes`` (hit service, buffering)."""
        return nbytes / self.copy_bw
