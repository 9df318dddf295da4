"""Fault taxonomy: data-only event records.

Every fault the injector can apply is an immutable dataclass here, so a
:class:`~repro.faults.schedule.FaultSchedule` is pure data — printable,
comparable, hashable — and the deterministic trace can record ``repr(ev)``
verbatim. Interpretation (which hooks to poke on which layer) lives in
:class:`~repro.faults.injector.FaultInjector`.

The taxonomy mirrors the failure domains of a real DAOS deployment:

==================  =======================================================
fabric              :class:`Partition` / :class:`PartitionLeader` /
                    :class:`Heal`, :class:`DelayLink`, :class:`FlakyLink`
engine (process)    :class:`CrashEngine` / :class:`RestartEngine`
storage (pool map)  :class:`ExcludeTarget` / :class:`ReintegrateTarget`
metadata (Raft)     :class:`CrashReplica` / :class:`RestartReplica`
media (hardware)    :class:`MediaSlow` / :class:`MediaRestore`
==================  =======================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


class FaultEvent:
    """Base class; concrete events are frozen dataclasses."""

    __slots__ = ()

    def describe(self) -> str:
        """Stable one-line text for the deterministic trace."""
        return repr(self)


# ------------------------------------------------------------------ fabric
@dataclass(frozen=True, repr=True)
class Partition(FaultEvent):
    """Cut the fabric between two groups of node names (both ways)."""

    side_a: Tuple[str, ...]
    side_b: Tuple[str, ...]


@dataclass(frozen=True)
class PartitionLeader(FaultEvent):
    """Isolate the node hosting the current Raft leader from the other
    *server* nodes (clients keep reaching every engine — only the
    metadata quorum is disturbed). A no-op if no leader exists when the
    event fires; that outcome is recorded in the trace."""


@dataclass(frozen=True)
class Heal(FaultEvent):
    """Remove every active partition."""


@dataclass(frozen=True)
class DelayLink(FaultEvent):
    """Add extra latency between two nodes, both ways (0 clears)."""

    src: str
    dst: str
    extra: float


@dataclass(frozen=True)
class FlakyLink(FaultEvent):
    """Drop each message between two nodes, both ways, with probability
    ``drop_prob`` (0 clears). Draws come from the injector's
    ``faults:drop`` RNG stream, so runs stay seed-deterministic."""

    src: str
    dst: str
    drop_prob: float


# ------------------------------------------------------------------ engines
@dataclass(frozen=True)
class CrashEngine(FaultEvent):
    """Crash the engine with this global rank (RPCs answer DER_TIMEDOUT)."""

    rank: int


@dataclass(frozen=True)
class RestartEngine(FaultEvent):
    rank: int


# ------------------------------------------------------------------ targets
@dataclass(frozen=True)
class ExcludeTarget(FaultEvent):
    """Mark a global target of the cluster's pool DOWN in the pool map (via
    the Raft service); ``permanent=True`` evicts it for good (DOWNOUT) and
    queues a rebuild onto its deterministic spare."""

    tid: int
    permanent: bool = False


@dataclass(frozen=True)
class ReintegrateTarget(FaultEvent):
    """Bring a DOWN target of the cluster's pool back: it enters
    REBUILDING (accepting writes, serving no reads) and flips UP once the
    background resync converges."""

    tid: int


# ------------------------------------------------------------------ raft
@dataclass(frozen=True)
class CrashReplica(FaultEvent):
    """Crash whichever metadata-service Raft replica leads when the event
    fires — mid-commit leader loss."""


@dataclass(frozen=True)
class RestartReplica(FaultEvent):
    """Restart every crashed replica — the safe closer for leader-crash
    events."""


# ------------------------------------------------------------------ media
@dataclass(frozen=True)
class MediaSlow(FaultEvent):
    """Degrade one engine's media: extra per-access latency plus a
    bandwidth factor applied to its media read/write channels."""

    rank: int
    extra_latency: float = 50e-6
    bw_factor: float = 0.25


@dataclass(frozen=True)
class MediaRestore(FaultEvent):
    rank: int
