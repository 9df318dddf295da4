"""VOS — the Versioned Object Store held by every DAOS target.

Mirrors the real VOS hierarchy: pool shard → container shard → object →
dkey → akey → single value (with epoch history) or byte extent tree,
with the two key levels held as one sorted ``(dkey, akey)`` list per
object. Payloads can be real bytes or lazily-generated patterns so that
TiB-scale benchmarks never materialize their data.
"""

from repro.daos.vos.payload import (
    BytesPayload,
    Payload,
    PatternPayload,
    ZeroPayload,
    as_payload,
    concat_payloads,
)
from repro.daos.vos.extent import Extent, ExtentTree
from repro.daos.vos.container import TOMBSTONE, EpochClock, VosContainer
from repro.daos.vos.pool import VosPool

__all__ = [
    "EpochClock",
    "TOMBSTONE",
    "Payload",
    "BytesPayload",
    "PatternPayload",
    "ZeroPayload",
    "as_payload",
    "concat_payloads",
    "Extent",
    "ExtentTree",
    "VosContainer",
    "VosPool",
]
