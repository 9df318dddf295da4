"""Chaos scenarios: real client workloads under injected faults.

The canonical acceptance scenario (ISSUE: partition the Raft leader
during ``create_container``, exclude a target under an RP_2G1 object)
plus seed-matrix random chaos sweeping every fault domain at once.
Every run already asserts the full Raft safety set inside
``run_chaos``; the tests add the workload-level guarantees.
"""

import pytest

from repro.faults import DelayLink, FaultSchedule, check_raft_safety

from tests.faults.harness import (
    _PAYLOAD,
    run_random_kv_chaos,
    run_rp2g1_partition_chaos,
)

pytestmark = pytest.mark.chaos


def test_rp2g1_leader_partition_zero_data_loss(chaos_seed):
    run = run_rp2g1_partition_chaos(chaos_seed)
    # The workload read back every byte through the surviving replica.
    assert run.result == len(_PAYLOAD)
    assert b"zero loss" in run.trace_bytes
    assert b"inject PartitionLeader()" in run.trace_bytes
    # All three metadata replicas are up again after the heal, and the
    # full safety sweep (run inside run_chaos) stayed green.
    assert run.summary["live"] == 3
    assert run.summary["max_commit"] >= 6  # pool + container + exclusion
    # check_raft_safety is idempotent: re-running it on the settled
    # cluster reproduces the same summary.
    assert check_raft_safety(run.cluster.daos.svc) == run.summary


def test_rp2g1_partition_stalls_then_completes(chaos_seed):
    """The partition lands before the container exists and the create
    only completes after the heal — i.e. the fault really did hit the
    metadata path mid-flight."""
    run = run_rp2g1_partition_chaos(chaos_seed)
    lines = run.trace.lines

    def time_of(needle):
        for line in lines:
            stamp, _, text = line.partition(" ")
            if needle in text:
                return float(stamp)
        raise AssertionError(f"{needle!r} not in trace:\n" + "\n".join(lines))

    assert (
        time_of("inject PartitionLeader()")
        < time_of("inject Heal()")
        <= time_of("container created")
    )


def test_random_chaos_kv_no_acknowledged_loss(chaos_seed):
    """Random multi-domain chaos: the KV workload retries through engine
    crashes/replica crashes/partitions and verifies every acknowledged
    key at the end (the workload raises on any loss)."""
    run = run_random_kv_chaos(chaos_seed)
    assert 0 < run.result <= 8
    # Every disruption with a scheduled recovery healed: all 3 metadata
    # replicas live, exactly the invariant-checked summary reported.
    assert run.summary["live"] == 3
    assert b"arm schedule" in run.trace_bytes


def test_delay_link_slows_one_path_until_cleared():
    """DelayLink adds one-way latency between two nodes; extra=0 clears."""
    from repro.cluster import small_cluster

    cluster = small_cluster(server_nodes=2, client_nodes=1)
    sim = cluster.sim
    me = cluster.clients[0].name
    schedule = FaultSchedule()
    for server in cluster.servers:
        schedule.at(1.0, DelayLink(me, server.name, 1e-3))
        schedule.at(2.0, DelayLink(me, server.name, 0.0))
    armed_at = sim.now
    injector = cluster.inject(schedule)
    client = cluster.new_client(0)

    def go():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("slow", oclass="S1")
        oid = yield from cont.alloc_oid()
        obj = cont.open_object(oid)
        seconds = []
        for at in (0.5, 1.5, 2.5):  # before, inside, after the window
            yield armed_at + at - sim.now
            start = sim.now
            yield from obj.put(b"k", b"a", b"v")
            seconds.append(sim.now - start)
        obj.close()
        return seconds

    before, during, after = cluster.run(go())
    assert during == pytest.approx(before + 2e-3)  # request + reply
    assert after == before
    assert injector.trace.as_bytes().count(b"inject DelayLink") == 4


def test_random_schedule_is_liveness_safe():
    """Random schedules never overlap two disruptions, so a quorum
    always eventually returns."""
    from repro.cluster import small_cluster

    cluster = small_cluster(server_nodes=3, client_nodes=1)
    sched = FaultSchedule.random(
        cluster.rng,
        horizon=8.0,
        server_nodes=[s.name for s in cluster.servers],
        engine_ranks=range(4),
        target_ids=range(8),
        replica_ids=range(3),
        n_faults=5,
    )
    entries = sched.sorted()
    assert len(entries) >= 5
    assert sched.horizon <= 8.0
    # windows (disruption -> recovery) must not interleave; target
    # exclusions now close with a reintegration (the rebuild engine
    # resyncs the window, so random chaos may pair them with writes)
    open_since = None
    for delay, event in entries:
        name = type(event).__name__
        is_recovery = name in (
            "Heal",
            "RestartEngine",
            "RestartReplica",
            "MediaRestore",
            "ReintegrateTarget",
        ) or (name == "FlakyLink" and event.drop_prob == 0.0)
        if is_recovery:
            assert open_since is not None, f"recovery {event} with no fault open"
            open_since = None
        else:
            assert open_since is None, (
                f"{event} at {delay} overlaps fault opened at {open_since}"
            )
            open_since = delay
