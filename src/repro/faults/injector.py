"""The fault injector: binds a schedule to a booted cluster.

The injector is the single place that knows which hook each fault event
maps to:

- fabric partitions / flaky links / latency → :class:`repro.network.fabric.Fabric`
  fault plane,
- engine crash/restart → :meth:`repro.daos.engine.Engine.crash` / ``restart``,
- target exclusion/reintegration → :meth:`repro.daos.system.DaosSystem.exclude_target`
  (a real Raft-replicated pool-map update, spawned as a task),
- Raft replica crash/restart → :meth:`repro.consensus.raft.RaftNode.crash` /
  ``restart``,
- slow media → the engine's ``media_latency_extra`` plus
  :meth:`repro.network.flows.FlowNetwork.set_link_capacity` on the media
  channels.

Every action is appended to an :class:`EventTrace` with its simulated
timestamp. Because the simulator is single-threaded and deterministic,
two runs with the same seed produce byte-identical traces — the
FoundationDB-style reproducibility contract the chaos harness asserts.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Generator, List, Tuple

from repro.errors import SimulationError
from repro.faults import events as ev
from repro.faults.schedule import FaultSchedule


class EventTrace:
    """Append-only, timestamped text trace of a chaos run."""

    def __init__(self) -> None:
        self._lines: List[str] = []

    def note(self, time: float, text: str) -> None:
        self._lines.append(f"{time:.9f} {text}")

    @property
    def lines(self) -> List[str]:
        return list(self._lines)

    def as_bytes(self) -> bytes:
        return "\n".join(self._lines).encode("utf-8")

    def digest(self) -> str:
        return hashlib.sha256(self.as_bytes()).hexdigest()

    def __len__(self) -> int:
        return len(self._lines)


class FaultInjector:
    """Arms a :class:`FaultSchedule` against a booted cluster.

    ``cluster`` is duck-typed: it needs ``sim``, ``fabric``, ``daos``
    (with ``engines``, ``svc``, ``exclude_target``, ``reintegrate_target``),
    ``servers`` and ``rng`` — exactly what
    :class:`repro.cluster.builder.Cluster` provides.

    Schedule delays are relative to :meth:`arm` time.
    """

    def __init__(self, cluster, schedule: FaultSchedule):
        self.cluster = cluster
        self.sim = cluster.sim
        self.schedule = schedule
        self.trace = EventTrace()
        self.rng = cluster.rng
        self._armed = False
        self._media_saved: Dict[int, Tuple[float, float, float]] = {}
        self._pending_tasks: List = []

    # ------------------------------------------------------------- arming
    def arm(self) -> "FaultInjector":
        """Schedule every event; returns self for chaining."""
        if self._armed:
            raise SimulationError("injector already armed")
        self._armed = True
        self.trace.note(self.sim.now, f"arm schedule ({len(self.schedule)} events)")
        for delay, event in self.schedule:
            self.sim.schedule(delay, self._fire, event)
        return self

    def note(self, text: str) -> None:
        """Workload-visible marker: timestamped line in the trace."""
        self.trace.note(self.sim.now, text)
        if self.sim.tracer is not None:
            self.sim.tracer.instant(text, "faults")

    # ------------------------------------------------------------- dispatch
    def _fire(self, event: ev.FaultEvent) -> None:
        handler = self._HANDLERS.get(type(event))
        if handler is None:
            raise SimulationError(f"no injector handler for {event!r}")
        outcome = handler(self, event)
        suffix = f" [{outcome}]" if outcome else ""
        self.trace.note(self.sim.now, f"inject {event.describe()}{suffix}")
        if self.sim.tracer is not None:
            # Mirror the injection onto the span timeline so chaos runs
            # show fault ↔ slowdown correlation in the same Perfetto view.
            self.sim.tracer.instant(
                f"inject {event.describe()}",
                "faults",
                attrs={"outcome": outcome} if outcome else None,
            )

    # -- fabric -----------------------------------------------------------
    def _do_partition(self, event: ev.Partition) -> str:
        self.cluster.fabric.partition(event.side_a, event.side_b)
        return ""

    def _do_partition_leader(self, event: ev.PartitionLeader) -> str:
        leader = self.cluster.daos.svc.leader()
        if leader is None:
            return "skipped: no leader"
        name = leader.addr.name
        others = [s.name for s in self.cluster.servers if s.name != name]
        if not others:
            return "skipped: single server"
        self.cluster.fabric.partition([name], others)
        return f"isolated {name} (raft:{leader.node_id})"

    def _do_heal(self, _event: ev.Heal) -> str:
        self.cluster.fabric.heal()
        return ""

    def _do_delay_link(self, event: ev.DelayLink) -> str:
        self.cluster.fabric.set_extra_delay(event.src, event.dst, event.extra)
        return ""

    def _do_flaky_link(self, event: ev.FlakyLink) -> str:
        if event.drop_prob <= 0:
            rule = None
        else:
            prob = float(event.drop_prob)

            def rule() -> bool:
                return self.rng.uniform("faults:drop", 0.0, 1.0) < prob

        self.cluster.fabric.set_drop_rule(event.src, event.dst, rule)
        return ""

    # -- engines ----------------------------------------------------------
    def _do_crash_engine(self, event: ev.CrashEngine) -> str:
        self.cluster.daos.engines[event.rank].crash()
        return ""

    def _do_restart_engine(self, event: ev.RestartEngine) -> str:
        self.cluster.daos.engines[event.rank].restart()
        return ""

    # -- targets ----------------------------------------------------------
    def _do_exclude_target(self, event: ev.ExcludeTarget) -> str:
        uuid = self.cluster.pool.uuid

        def task() -> Generator:
            version = yield from self.cluster.daos.exclude_target(
                uuid, event.tid, permanent=event.permanent
            )
            state = "DOWNOUT" if event.permanent else "DOWN"
            self.trace.note(
                self.sim.now,
                f"pool map v{version}: target {event.tid} {state}",
            )

        self._pending_tasks.append(
            self.sim.spawn(task(), f"faults:exclude:{event.tid}").defuse()
        )
        return "spawned"

    def _do_reintegrate_target(self, event: ev.ReintegrateTarget) -> str:
        uuid = self.cluster.pool.uuid

        def task() -> Generator:
            version = yield from self.cluster.daos.reintegrate_target(
                uuid, event.tid
            )
            self.trace.note(
                self.sim.now,
                f"pool map v{version}: target {event.tid} REBUILDING",
            )

        self._pending_tasks.append(
            self.sim.spawn(task(), f"faults:reint:{event.tid}").defuse()
        )
        return "spawned"

    # -- raft -------------------------------------------------------------
    def _do_crash_replica(self, _event: ev.CrashReplica) -> str:
        node = self.cluster.daos.svc.leader()
        if node is None:
            return "skipped: no leader"
        node.crash()
        return f"crashed raft:{node.node_id}"

    def _do_restart_replica(self, _event: ev.RestartReplica) -> str:
        victims = [n for n in self.cluster.daos.svc.nodes if not n._alive]
        for node in victims:
            node.restart()
        if not victims:
            return "skipped: none down"
        return "restarted " + ",".join(f"raft:{n.node_id}" for n in victims)

    # -- media ------------------------------------------------------------
    def _do_media_slow(self, event: ev.MediaSlow) -> str:
        if event.rank in self._media_saved:
            return f"skipped: engine {event.rank} already degraded"
        engine = self.cluster.daos.engines[event.rank]
        slot = engine.slot
        self._media_saved[event.rank] = (
            engine.media_latency_extra,
            slot.media_read.capacity,
            slot.media_write.capacity,
        )
        flownet = self.cluster.fabric.flownet
        engine.media_latency_extra = event.extra_latency
        flownet.set_link_capacity(
            slot.media_read, slot.media_read.capacity * event.bw_factor
        )
        flownet.set_link_capacity(
            slot.media_write, slot.media_write.capacity * event.bw_factor
        )
        return ""

    def _do_media_restore(self, event: ev.MediaRestore) -> str:
        saved = self._media_saved.pop(event.rank, None)
        if saved is None:
            return f"skipped: engine {event.rank} not degraded"
        engine = self.cluster.daos.engines[event.rank]
        slot = engine.slot
        extra, read_cap, write_cap = saved
        engine.media_latency_extra = extra
        flownet = self.cluster.fabric.flownet
        flownet.set_link_capacity(slot.media_read, read_cap)
        flownet.set_link_capacity(slot.media_write, write_cap)
        return ""

    _HANDLERS = {
        ev.Partition: _do_partition,
        ev.PartitionLeader: _do_partition_leader,
        ev.Heal: _do_heal,
        ev.DelayLink: _do_delay_link,
        ev.FlakyLink: _do_flaky_link,
        ev.CrashEngine: _do_crash_engine,
        ev.RestartEngine: _do_restart_engine,
        ev.ExcludeTarget: _do_exclude_target,
        ev.ReintegrateTarget: _do_reintegrate_target,
        ev.CrashReplica: _do_crash_replica,
        ev.RestartReplica: _do_restart_replica,
        ev.MediaSlow: _do_media_slow,
        ev.MediaRestore: _do_media_restore,
    }
