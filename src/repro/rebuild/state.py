"""Per-target state machine recorded in the Raft-backed pool map.

Mirrors the ``pool_comp_state`` lifecycle of real DAOS targets:

- ``UP`` — healthy; serves reads and writes.
- ``DOWN`` — administratively excluded or failed; serves nothing. The
  pool map records the global epoch at the moment of exclusion (the
  *watermark*): every write that the target missed carries a newer
  epoch, which is what lets reintegration resync only the exclusion
  window instead of the whole shard.
- ``REBUILDING`` — reintegrating. The target accepts *writes* (so the
  resync has a fixed amount of catch-up to do) but serves no *reads*
  (its data is incomplete until the resync drains). This is the DAOS
  ``UP`` (reint) phase before the target turns ``UPIN``.
- ``DOWNOUT`` — permanently evicted. Never returns; the rebuild engine
  restores redundancy by reconstructing the lost shard onto a
  deterministic spare target, and ``rebuilt`` flips once the spare holds
  a complete copy (before that, reads treat the slot as degraded while
  writes already land on the spare).

Each transition bumps the pool-map version and records it in the status,
so clients can reason about which map revision a state belongs to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

UP = "UP"
DOWN = "DOWN"
REBUILDING = "REBUILDING"
DOWNOUT = "DOWNOUT"

#: legal transitions; DOWNOUT is terminal.
_TRANSITIONS = {
    UP: frozenset({DOWN, DOWNOUT}),
    DOWN: frozenset({REBUILDING, DOWNOUT}),
    REBUILDING: frozenset({UP, DOWN, DOWNOUT}),
    DOWNOUT: frozenset(),
}


def can_transition(current: str, target: str) -> bool:
    return target in _TRANSITIONS.get(current, frozenset())


@dataclass(frozen=True)
class TargetStatus:
    """One target's pool-map entry while it is anything but healthy-UP.

    ``version`` is the pool-map version of the transition that produced
    this state; ``watermark`` is the global epoch at exclusion time (the
    resync lower bound); ``rebuilt`` only applies to DOWNOUT and flips
    once the spare replacement holds a complete copy of the lost shard.
    """

    state: str
    version: int
    watermark: int = 0
    rebuilt: bool = False

    def advance(self, state: str, version: int) -> "TargetStatus":
        if not can_transition(self.state, state):
            raise ValueError(f"illegal target transition {self.state} -> {state}")
        return TargetStatus(
            state=state,
            version=version,
            watermark=self.watermark,
            rebuilt=self.rebuilt,
        )

    # ------------------------------------------------- raft serialization
    def to_record(self) -> Dict:
        return {"state": self.state, "version": self.version,
                "watermark": self.watermark, "rebuilt": self.rebuilt}

    @classmethod
    def from_record(cls, record: Dict) -> "TargetStatus":
        return cls(state=record["state"], version=record["version"],
                   watermark=record.get("watermark", 0),
                   rebuilt=record.get("rebuilt", False))
