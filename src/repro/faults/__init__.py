"""Deterministic fault injection for the simulated DAOS stack.

Compose a :class:`FaultSchedule` (explicitly or seed-driven via
:meth:`FaultSchedule.random`), arm it on a booted cluster with a
:class:`FaultInjector`, and assert distributed-systems safety with
:mod:`repro.faults.invariants`. Same seed → byte-identical
:class:`EventTrace`. See DESIGN.md §10.2 for the fault model.
"""

from repro.faults.events import (
    CrashEngine,
    CrashReplica,
    DelayLink,
    ExcludeTarget,
    FaultEvent,
    FlakyLink,
    Heal,
    MediaRestore,
    MediaSlow,
    Partition,
    PartitionLeader,
    ReintegrateTarget,
    RestartEngine,
    RestartReplica,
)
from repro.faults.injector import EventTrace, FaultInjector
from repro.faults.invariants import (
    InvariantViolation,
    check_raft_safety,
    check_replica_consistency,
)
from repro.faults.schedule import FaultSchedule

__all__ = [
    "CrashEngine",
    "CrashReplica",
    "DelayLink",
    "EventTrace",
    "ExcludeTarget",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "FlakyLink",
    "Heal",
    "InvariantViolation",
    "MediaRestore",
    "MediaSlow",
    "Partition",
    "PartitionLeader",
    "ReintegrateTarget",
    "RestartEngine",
    "RestartReplica",
    "check_raft_safety",
    "check_replica_consistency",
]
