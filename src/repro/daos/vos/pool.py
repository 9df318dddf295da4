"""VOS pool shard: per-target capacity accounting and container table."""

from __future__ import annotations

from typing import Dict

from repro.daos.vos.container import VosContainer
from repro.errors import DerExist, DerNoSpace, DerNonexist


class VosPool:
    """The slice of a DAOS pool held by one target."""

    def __init__(self, pool_uuid: str, capacity: int, clock=None):
        if capacity <= 0:
            raise ValueError("pool shard capacity must be positive")
        self.pool_uuid = pool_uuid
        self.capacity = int(capacity)
        self.used = 0
        #: optional shared :class:`~repro.daos.vos.container.EpochClock`;
        #: containers fall back to a private clock when absent.
        self.clock = clock
        self.containers: Dict[str, VosContainer] = {}

    def charge(self, delta: int) -> None:
        """Account ``delta`` bytes (may be negative on punch/overwrite)."""
        if delta > 0 and self.used + delta > self.capacity:
            raise DerNoSpace(
                f"target shard of pool {self.pool_uuid}: "
                f"{self.used + delta} > {self.capacity}"
            )
        self.used += delta
        if self.used < 0:
            self.used = 0

    def create_container(self, uuid: str) -> VosContainer:
        if uuid in self.containers:
            raise DerExist(f"container {uuid}")
        container = VosContainer(uuid, pool=self)
        self.containers[uuid] = container
        return container

    def open_container(self, uuid: str) -> VosContainer:
        try:
            return self.containers[uuid]
        except KeyError:
            raise DerNonexist(f"container {uuid}") from None
