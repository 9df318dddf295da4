"""Online rebuild & resync engine — self-healing replicated/EC pools.

The real DAOS pool service reacts to target state changes by launching a
rebuild: surviving targets scan their VOS trees for objects that lost a
shard and migrate reconstructed data onto the replacement (or returning)
target, throttled so foreground I/O degrades gracefully. This package
reproduces that control loop:

- :mod:`repro.rebuild.state` — the per-target state machine
  (UP → DOWN → REBUILDING → UP, plus DOWNOUT for permanent exclusion)
  recorded in the Raft-backed pool map with per-state version
  watermarks;
- :mod:`repro.rebuild.scheduler` — the scan/migrate engine driven by
  :class:`~repro.daos.system.DaosSystem` on state transitions, with the
  throttle (:func:`~repro.rebuild.scheduler.rebuild_cap`) that caps
  rebuild traffic to a fraction of the engine/fabric bandwidth.
"""

from repro.rebuild.state import (
    DOWN,
    DOWNOUT,
    REBUILDING,
    UP,
    TargetStatus,
    can_transition,
)
from repro.rebuild.scheduler import RebuildJob, RebuildManager

__all__ = [
    "UP",
    "DOWN",
    "REBUILDING",
    "DOWNOUT",
    "TargetStatus",
    "can_transition",
    "RebuildJob",
    "RebuildManager",
]
