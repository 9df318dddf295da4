"""Fault schedules: explicit timelines and seed-driven random chaos.

A :class:`FaultSchedule` is an ordered list of ``(delay, event)`` pairs,
where ``delay`` is seconds after :meth:`FaultInjector.arm` (not absolute
simulated time — clusters spend boot time electing a leader and creating
the pool, and schedules should not depend on how long that took).

:meth:`FaultSchedule.random` draws a schedule from a named
:class:`~repro.sim.rng.RngStreams` stream, the same reproducibility
discipline every other stochastic component uses: the same seed always
yields the same schedule, and generating a schedule never perturbs the
draws of other consumers.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

from repro.errors import SimulationError
from repro.faults import events as ev
from repro.sim.rng import RngStreams

#: the RNG stream :meth:`FaultSchedule.random` draws from
RANDOM_STREAM = "faults:schedule"


class FaultSchedule:
    """An ordered fault timeline."""

    def __init__(self, entries: Sequence[Tuple[float, ev.FaultEvent]] = ()):
        self._entries: List[Tuple[float, ev.FaultEvent]] = list(entries)

    def at(self, delay: float, event: ev.FaultEvent) -> "FaultSchedule":
        """Append ``event`` at ``delay`` seconds after arming; chainable."""
        if delay < 0:
            raise SimulationError(f"fault delay must be >= 0, got {delay}")
        if not isinstance(event, ev.FaultEvent):
            raise SimulationError(f"not a FaultEvent: {event!r}")
        self._entries.append((float(delay), event))
        return self

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Tuple[float, ev.FaultEvent]]:
        return iter(self.sorted())

    def sorted(self) -> List[Tuple[float, ev.FaultEvent]]:
        """Entries by (delay, insertion order) — the arming order."""
        decorated = sorted(
            enumerate(self._entries), key=lambda pair: (pair[1][0], pair[0])
        )
        return [entry for _i, entry in decorated]

    @property
    def horizon(self) -> float:
        """Delay of the last event (0 for an empty schedule)."""
        return max((d for d, _e in self._entries), default=0.0)

    # ------------------------------------------------------------- random
    @classmethod
    def random(
        cls,
        rng: RngStreams,
        *,
        horizon: float,
        server_nodes: Sequence[str] = (),
        engine_ranks: Sequence[int] = (),
        target_ids: Sequence[int] = (),
        replica_ids: Sequence[int] = (),
        n_faults: int = 4,
    ) -> "FaultSchedule":
        """Draw a liveness-safe random schedule from the
        :data:`RANDOM_STREAM` RNG stream.

        The timeline is divided into ``n_faults`` slots; each slot holds
        one disruption and its recovery, and windows never overlap — so
        at most one fault is active at a time and a metadata quorum
        always eventually exists. Target exclusions are the exception:
        they persist (see the inline note), so workloads under random
        chaos must tolerate :class:`~repro.errors.DerDataLoss` on
        unreplicated objects.

        Only fault kinds whose id pools are provided are drawn: pass
        ``replica_ids=()`` to keep Raft untouched, etc.
        """
        kinds: List[str] = []
        if len(server_nodes) >= 2:
            kinds.append("partition")
        if engine_ranks:
            kinds.extend(["engine", "media"])
        if target_ids:
            kinds.append("target")
        if replica_ids:
            kinds.append("replica")
        if len(server_nodes) >= 2:
            kinds.append("flaky")
        if not kinds:
            raise SimulationError("no fault kinds available for random schedule")

        sched = cls()
        stream = RANDOM_STREAM
        slot = horizon / max(1, n_faults)
        for i in range(n_faults):
            base = i * slot
            start = base + rng.uniform(stream, 0.05, 0.40) * slot
            duration = rng.uniform(stream, 0.20, 0.50) * slot
            stop = start + duration
            kind = kinds[rng.integer(stream, 0, len(kinds))]
            if kind == "partition":
                names = list(server_nodes)
                perm = [
                    names[j]
                    for j in rng.stream(stream).permutation(len(names))
                ]
                k = rng.integer(stream, 1, max(2, len(names) // 2 + 1))
                sched.at(
                    start,
                    ev.Partition(tuple(sorted(perm[:k])),
                                 tuple(sorted(perm[k:]))),
                )
                sched.at(stop, ev.Heal())
            elif kind == "flaky":
                names = list(server_nodes)
                a = rng.integer(stream, 0, len(names))
                b = rng.integer(stream, 0, len(names) - 1)
                if b >= a:
                    b += 1
                prob = rng.uniform(stream, 0.05, 0.30)
                sched.at(start, ev.FlakyLink(names[a], names[b], prob))
                sched.at(stop, ev.FlakyLink(names[a], names[b], 0.0))
            elif kind == "engine":
                rank = engine_ranks[rng.integer(stream, 0, len(engine_ranks))]
                sched.at(start, ev.CrashEngine(rank))
                sched.at(stop, ev.RestartEngine(rank))
            elif kind == "media":
                rank = engine_ranks[rng.integer(stream, 0, len(engine_ranks))]
                extra = rng.uniform(stream, 20e-6, 200e-6)
                factor = rng.uniform(stream, 0.1, 0.6)
                sched.at(start, ev.MediaSlow(rank, extra, factor))
                sched.at(stop, ev.MediaRestore(rank))
            elif kind == "target":
                # Exclude for the window, reintegrate at its end — even
                # with the workload writing throughout: the rebuild
                # engine resyncs the exclusion window before the target
                # serves reads again, so no stale replica can resurface.
                tid = target_ids[rng.integer(stream, 0, len(target_ids))]
                sched.at(start, ev.ExcludeTarget(tid))
                sched.at(stop, ev.ReintegrateTarget(tid))
            elif kind == "replica":
                # None = whoever leads at fire time: the interesting crash
                sched.at(start, ev.CrashReplica(None))
                sched.at(stop, ev.RestartReplica(None))
        return sched
