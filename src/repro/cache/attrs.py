"""TTL caches for metadata: attributes (stat) and dentries (lookup).

Models dfuse's ``--attr-time`` / ``--dentry-time`` caching: an entry is
served from DRAM until its simulated age exceeds the TTL, after which
the next access misses and refreshes from the store.  Time comes from
``sim.now`` — fully deterministic — and explicit invalidation (unlink,
rename, a local write changing the size) drops entries immediately so
the caller never sees its own operations stale.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple


class TtlCache:
    """Tiny deterministic (key -> value) cache with per-entry expiry."""

    def __init__(self, sim, ttl: float, metrics_prefix: str = "cache.attr",
                 labels=None):
        self.sim = sim
        self.ttl = ttl
        self.prefix = metrics_prefix
        if labels:
            from repro.obs.metrics import format_metric_name
            self._label_suffix = format_metric_name("", labels)
        else:
            self._label_suffix = ""
        self._entries: Dict[Hashable, Tuple[float, object]] = {}

    def _incr(self, name: str) -> None:
        m = self.sim.metrics
        if m is not None:
            m.incr(f"{self.prefix}.{name}{self._label_suffix}")

    def get(self, key: Hashable) -> Optional[object]:
        """Value if cached and fresh, else None (expired entries drop)."""
        entry = self._entries.get(key)
        if entry is None:
            self._incr("misses")
            return None
        stamp, value = entry
        if self.sim.now - stamp > self.ttl:
            del self._entries[key]
            self._incr("expirations")
            self._incr("misses")
            return None
        self._incr("hits")
        return value

    def put(self, key: Hashable, value: object) -> None:
        self._entries[key] = (self.sim.now, value)

    def invalidate(self, key: Hashable) -> None:
        if self._entries.pop(key, None) is not None:
            self._incr("invalidations")

    def invalidate_prefix(self, prefix: str) -> None:
        """Drop every string key under a path prefix (rename/rmdir)."""
        dead = [
            k for k in self._entries
            if isinstance(k, str) and (k == prefix or k.startswith(prefix + "/"))
        ]
        for k in dead:
            del self._entries[k]
        if dead:
            self._incr("invalidations")

    def __len__(self) -> int:
        return len(self._entries)
