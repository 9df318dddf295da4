"""FoundationDB-style deterministic-simulation chaos harness.

``run_chaos`` is the one entry point: build a seeded cluster, arm a
fault schedule, drive a workload task to completion, let the dust
settle, then assert every Raft safety invariant. The returned
:class:`ChaosRun` carries the deterministic event trace — two runs with
the same seed must produce byte-identical traces, which is itself one of
the asserted properties (``tests/faults/test_determinism.py``).

Writing a chaos test (see DESIGN.md §10.2):

1. a *workload*: ``def workload(cluster, injector) -> generator`` doing
   real client I/O, using ``injector.note(...)`` to stamp progress into
   the trace and returning a deterministic (reprable) result;
2. a *schedule factory*: ``def schedule(cluster) -> FaultSchedule`` —
   explicit ``.at(...)`` timelines or ``FaultSchedule.random``;
3. ``run = run_chaos(workload, schedule, seed=...)`` then assert on
   ``run.result`` / ``run.trace`` / ``run.summary``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.cluster import small_cluster
from repro.daos.oclass import RP_2G1
from repro.errors import DerDataLoss, DerTimedOut
from repro.faults import (
    EventTrace,
    FaultInjector,
    FaultSchedule,
    Heal,
    PartitionLeader,
    check_raft_safety,
    check_replica_consistency,
)

DEFAULT_SEED = 0xDA05


@dataclass
class ChaosRun:
    """Everything a chaos test may want to assert on."""

    seed: int
    result: object
    trace: EventTrace
    summary: Dict[str, int]
    cluster: object
    #: storage-level replica/EC-parity consistency counters
    consistency: Dict[str, int] = None

    @property
    def trace_bytes(self) -> bytes:
        return self.trace.as_bytes()


def run_chaos(
    workload: Callable,
    schedule_factory: Callable,
    *,
    seed: int = DEFAULT_SEED,
    server_nodes: int = 3,
    client_nodes: int = 1,
    targets_per_engine: int = 2,
    settle: float = 5.0,
    limit: float = 1e6,
) -> ChaosRun:
    """Run ``workload(cluster, injector)`` under ``schedule_factory(cluster)``.

    Three server nodes give the metadata service a 3-replica Raft group
    (quorum 2), the minimum that survives single-fault chaos.
    """
    cluster = small_cluster(
        server_nodes=server_nodes,
        client_nodes=client_nodes,
        targets_per_engine=targets_per_engine,
        seed=seed,
    )
    injector = cluster.inject(schedule_factory(cluster))
    task = cluster.sim.spawn(workload(cluster, injector), "chaos:workload")
    result = cluster.sim.run_until_complete(task, limit=limit)
    # Let in-flight elections, heals and injector tasks settle before
    # judging safety.
    cluster.sim.run(until=cluster.sim.now + settle)
    # Drain any rebuild a late reintegration left running, then hold the
    # storage layer to the replica-consistency invariant: every group's
    # available members agree, EC parity checks out.
    drain = cluster.sim.spawn(
        _drain_rebuilds(cluster), "chaos:drain-rebuild"
    )
    cluster.sim.run_until_complete(drain, limit=limit)
    consistency = check_replica_consistency(cluster.daos)
    injector.note(
        "replica consistency ok %s" % sorted(consistency.items())
    )
    summary = check_raft_safety(cluster.daos.svc)
    injector.note(
        "chaos done result=%r summary=%s" % (result, sorted(summary.items()))
    )
    return ChaosRun(
        seed=seed,
        result=result,
        trace=injector.trace,
        summary=summary,
        cluster=cluster,
        consistency=consistency,
    )


def _drain_rebuilds(cluster):
    for pool_uuid in sorted(cluster.daos._pool_maps):
        yield from cluster.daos.rebuild.wait(pool_uuid)


# --------------------------------------------------------------------------
# Canonical scenarios, reused by determinism and acceptance tests.
# --------------------------------------------------------------------------

_PAYLOAD = b"forecast state vector" * 512  # ~10.5 KiB, two RP_2G1 replicas


def rp2g1_partition_schedule(cluster) -> FaultSchedule:
    """Isolate the Raft leader 100 us after arming — mid way through the
    workload's ``create_container`` commit — and heal 1.5 s later."""
    return FaultSchedule().at(1e-4, PartitionLeader()).at(1.5, Heal())


def rp2g1_partition_workload(cluster, inj):
    """The acceptance story: create an RP_2G1 container while the Raft
    leader is partitioned away, write, exclude a replica target, and
    verify a degraded read loses nothing."""
    client = cluster.new_client(0)
    pool = yield from client.connect_pool("tank")
    cont = yield from pool.create_container("precious", oclass="RP_2G1")
    inj.note("container created (rode out the partition)")

    oid = yield from cont.alloc_oid(RP_2G1)
    obj = cont.open_object(oid)
    yield from obj.write(0, _PAYLOAD)
    replicas = obj.layout.targets_for_dkey(0)
    inj.note(f"object written, replicas on targets {sorted(replicas)}")

    version = yield from cluster.daos.exclude_target(
        pool.pool_map.uuid, replicas[0]
    )
    yield from pool.refresh_map()
    inj.note(f"excluded target {replicas[0]} (pool map v{version})")

    survivor = cont.open_object(oid)
    back = yield from survivor.read(0, len(_PAYLOAD))
    data = back.materialize()
    if data != _PAYLOAD:
        raise AssertionError(
            f"data loss: {len(data)} bytes read, first divergence at "
            f"{next((i for i, (a, b) in enumerate(zip(data, _PAYLOAD)) if a != b), len(data))}"
        )
    inj.note(f"degraded read verified ({len(data)} bytes, zero loss)")
    obj.close()
    survivor.close()
    return len(data)


def run_rp2g1_partition_chaos(seed: int = DEFAULT_SEED) -> ChaosRun:
    return run_chaos(
        rp2g1_partition_workload, rp2g1_partition_schedule, seed=seed
    )


def kv_chaos_workload(cluster, inj, n_ops: int = 40, pace: float = 0.15):
    """Replicated-KV storm used under random schedules: every op retries
    through engine crashes and exclusions, and every acknowledged write
    is read back and verified at the end (no data loss)."""
    client = cluster.new_client(0)
    pool = yield from client.connect_pool("tank")
    cont = yield from pool.create_container("chaos-kv", oclass="RP_2G1")
    oid = yield from cont.alloc_oid(RP_2G1)
    obj = cont.open_object(oid)
    wrote = {}
    for i in range(n_ops):
        dkey = f"k{i % 8:02d}"
        value = f"v{i}"
        for _attempt in range(40):
            try:
                yield from obj.put(dkey, b"a", value)
                wrote[dkey] = value
                break
            except (DerTimedOut, DerDataLoss) as exc:
                inj.note(f"put {dkey} retrying: {exc}")
                yield 0.05
                yield from pool.refresh_map()
        else:
            inj.note(f"put {dkey} gave up (group fully excluded)")
            wrote.pop(dkey, None)
        yield pace
    verified = 0
    yield from pool.refresh_map()
    for dkey in sorted(wrote):
        for _attempt in range(40):
            try:
                got = yield from obj.get(dkey, b"a")
                break
            except (DerTimedOut, DerDataLoss) as exc:
                inj.note(f"get {dkey} retrying: {exc}")
                yield 0.05
                yield from pool.refresh_map()
        else:
            raise AssertionError(f"acknowledged key {dkey} unreadable")
        if got != wrote[dkey]:
            raise AssertionError(
                f"data loss on {dkey}: wrote {wrote[dkey]!r}, read {got!r}"
            )
        verified += 1
    obj.close()
    inj.note(f"verified {verified} acknowledged keys")
    return verified


def random_chaos_schedule(cluster, horizon: float = 6.0,
                          n_faults: int = 4) -> FaultSchedule:
    """Seed-driven schedule over every fault domain of ``cluster``."""
    return FaultSchedule.random(
        cluster.rng,
        horizon=horizon,
        server_nodes=[s.name for s in cluster.servers],
        engine_ranks=range(len(cluster.daos.engines)),
        target_ids=range(cluster.daos.n_targets),
        replica_ids=range(len(cluster.daos.svc.nodes)),
        n_faults=n_faults,
    )


def run_random_kv_chaos(seed: int = DEFAULT_SEED) -> ChaosRun:
    return run_chaos(kv_chaos_workload, random_chaos_schedule, seed=seed)
