"""Raft protocol tests: elections, replication, failures, invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus.raft import LEADER, RaftCluster
from repro.consensus.state_machine import AppendLogMachine, KvStateMachine
from repro.errors import NotLeaderError
from repro.hardware.specs import FabricSpec
from repro.network import Fabric
from repro.sim import RngStreams, Simulator


def build_cluster(n=3, seed=1, machine=AppendLogMachine):
    sim = Simulator()
    fabric = Fabric(sim, FabricSpec())
    addrs = [fabric.add_node(f"n{i}", 10e9) for i in range(n)]
    cluster = RaftCluster(
        sim, fabric, addrs, machine, rng=RngStreams(seed=seed)
    )
    return sim, cluster


def leaders_of(cluster):
    return [n for n in cluster.nodes if n.is_leader]


def wait_leader(cluster):
    """Task helper: poll until some node is leader; returns it."""
    while cluster.leader() is None:
        yield 0.01
    return cluster.leader()


def test_exactly_one_leader_elected():
    sim, cluster = build_cluster(3)
    sim.run(until=2.0)
    leaders = leaders_of(cluster)
    assert len(leaders) == 1
    # Every live node agrees on the term of the leader.
    terms = {n.current_term for n in cluster.nodes}
    assert len(terms) == 1


def test_single_node_cluster_becomes_leader():
    sim, cluster = build_cluster(1)
    sim.run(until=1.0)
    assert len(leaders_of(cluster)) == 1


def test_five_node_cluster_elects():
    sim, cluster = build_cluster(5, seed=3)
    sim.run(until=2.0)
    assert len(leaders_of(cluster)) == 1


def test_commands_replicate_to_all_nodes():
    sim, cluster = build_cluster(3)

    def client():
        leader = yield from wait_leader(cluster)
        for i in range(5):
            status, _ = yield leader.propose(("cmd", i))
            assert status == "ok"

    sim.spawn(client())
    sim.run(until=3.0)
    for i, node in enumerate(cluster.nodes):
        assert cluster.machines[i].applied == [("cmd", j) for j in range(5)]


def test_propose_on_follower_raises_not_leader():
    sim, cluster = build_cluster(3)
    sim.run(until=2.0)
    followers = [n for n in cluster.nodes if not n.is_leader]
    assert followers
    with pytest.raises(NotLeaderError):
        followers[0].propose(("x",))


def test_leader_crash_triggers_reelection_and_no_committed_loss():
    sim, cluster = build_cluster(3, seed=5)
    committed = []

    def client():
        leader = yield from wait_leader(cluster)
        for i in range(3):
            status, _ = yield leader.propose(("before", i))
            assert status == "ok"
            committed.append(("before", i))
        leader.crash()
        new_leader = None
        while new_leader is None or not new_leader.is_leader or new_leader is leader:
            yield 0.05
            new_leader = cluster.leader()
        for i in range(3):
            status, _ = yield new_leader.propose(("after", i))
            assert status == "ok"
            committed.append(("after", i))

    sim.spawn(client())
    sim.run(until=10.0)
    live = [n for n in cluster.nodes if n._alive]
    assert len(live) == 2
    for node in live:
        machine = cluster.machines[node.node_id]
        assert machine.applied == committed


def test_crashed_node_restart_catches_up():
    sim, cluster = build_cluster(3, seed=7)

    def client():
        leader = yield from wait_leader(cluster)
        victim = [n for n in cluster.nodes if n is not leader][0]
        victim.crash()
        for i in range(4):
            status, _ = yield leader.propose(("op", i))
            assert status == "ok"
        victim.restart()
        yield 2.0  # heartbeats bring the restarted node up to date
        return victim

    task = sim.spawn(client())
    sim.run(until=6.0)
    victim = task.result
    machine = cluster.machines[victim.node_id]
    assert [c for c in machine.applied] == [("op", i) for i in range(4)]


def test_minority_cannot_commit():
    sim, cluster = build_cluster(3, seed=11)
    outcome = []

    def client():
        leader = yield from wait_leader(cluster)
        others = [n for n in cluster.nodes if n is not leader]
        for node in others:
            node.crash()
        try:
            gate = leader.propose(("lost", 0))
        except NotLeaderError:
            outcome.append("stepped-down")
            return
        result = yield gate
        outcome.append(result)

    sim.spawn(client())
    sim.run(until=5.0)
    # The entry must never apply anywhere: either the gate reported an
    # error after the leader lost leadership, or nothing resolved it and
    # the proposal is still pending at the end of the run.
    if outcome and outcome[0] != "stepped-down":
        status, _ = outcome[0]
        assert status == "err"
    for machine in cluster.machines:
        assert ("lost", 0) not in machine.applied


def test_kv_state_machine_semantics():
    machine = KvStateMachine()
    assert machine.apply(("put", "a", 1)) is None
    assert machine.apply(("get", "a")) == 1
    assert machine.apply(("cas", "a", 1, 2)) is True
    assert machine.apply(("cas", "a", 1, 3)) is False
    assert machine.apply(("inc", "n", 5)) == 5
    assert machine.apply(("inc", "n", -2)) == 3
    assert machine.apply(("list", "")) == ["a", "n"]
    assert machine.apply(("del", "a")) is True
    assert machine.apply(("del", "a")) is False
    with pytest.raises(ValueError):
        machine.apply(("bogus",))


def _check_log_matching(cluster):
    """Raft State-Machine-Safety: applied sequences are prefixes of each
    other, and committed entries agree across nodes."""
    logs = [m.applied for m in cluster.machines]
    logs.sort(key=len)
    for shorter, longer in zip(logs, logs[1:]):
        assert longer[: len(shorter)] == shorter


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_ops=st.integers(1, 8),
    crash_point=st.integers(0, 8),
)
def test_property_no_divergence_under_leader_crashes(seed, n_ops, crash_point):
    sim, cluster = build_cluster(3, seed=seed)

    def client():
        sent = 0
        crashed = False
        while sent < n_ops:
            leader = cluster.leader()
            if leader is None:
                yield 0.05
                continue
            if not crashed and sent == crash_point:
                crashed = True
                leader.crash()
                yield 0.05
                # restart later so a quorum always eventually exists
                sim.schedule(1.0, leader.restart)
                continue
            try:
                gate = leader.propose(("op", sent))
            except NotLeaderError:
                yield 0.05
                continue
            status, _ = yield gate
            if status == "ok":
                sent += 1

    sim.spawn(client())
    sim.run(until=30.0)
    _check_log_matching(cluster)
    # All ops eventually commit on at least a quorum. Retries after an
    # ambiguous failure may duplicate an op (at-least-once: we implement
    # no client dedup, like raw Raft), but order must be preserved and
    # every op must appear.
    longest = max((m.applied for m in cluster.machines), key=len)
    ops = [c[1] for c in longest if c[0] == "op"]
    assert sorted(set(ops)) == list(range(n_ops))
    assert ops == sorted(ops)


# ---------------------------------------------------------------------------
# Network partitions, via the fabric fault plane (Fabric.partition/heal)
# and the reusable safety checkers from repro.faults.invariants.
# ---------------------------------------------------------------------------

from repro.faults.invariants import (  # noqa: E402
    check_applied_monotonic,
    check_committed_entries_present,
    check_commands_durable,
    check_election_safety,
    check_log_matching,
)


def _fabric_of(cluster):
    return cluster.nodes[0].endpoint.fabric


def _isolate_leader(fabric, cluster, leader):
    name = leader.endpoint.addr.name
    others = [
        n.endpoint.addr.name for n in cluster.nodes if n is not leader
    ]
    return fabric.partition([name], others)


def _check_all_invariants(cluster, acked=()):
    check_election_safety(cluster.nodes)
    check_log_matching(cluster.nodes)
    check_committed_entries_present(cluster.nodes)
    check_applied_monotonic(cluster.nodes)
    check_commands_durable(cluster.nodes, acked)


def test_partitioned_leader_cannot_commit():
    """A leader isolated from the quorum cannot commit; the majority
    elects a successor in a higher term; on heal the deposed leader's
    uncommitted entry is discarded, never applied anywhere."""
    sim, cluster = build_cluster(3, seed=13)
    fabric = _fabric_of(cluster)
    outcome = {}

    def client():
        leader = yield from wait_leader(cluster)
        status, _ = yield leader.propose(("committed", 0))
        assert status == "ok"
        _isolate_leader(fabric, cluster, leader)
        gate = leader.propose(("isolated", 0))
        new_leader = None
        while new_leader is None:
            yield 0.05
            for n in cluster.nodes:
                if n.is_leader and n is not leader:
                    new_leader = n
        status2, _ = yield new_leader.propose(("majority", 0))
        assert status2 == "ok"
        outcome["terms"] = (leader.current_term, new_leader.current_term)
        fabric.heal()
        # resolves once the old leader learns the higher term and fails
        # its pending proposals
        status1, _ = yield gate
        outcome["isolated_status"] = status1

    sim.spawn(client())
    sim.run(until=20.0)
    assert outcome["isolated_status"] == "err"
    old_term, new_term = outcome["terms"]
    assert new_term > old_term
    for machine in cluster.machines:
        assert ("isolated", 0) not in machine.applied
        assert ("majority", 0) in machine.applied  # replicated post-heal
    _check_all_invariants(
        cluster, acked=[("committed", 0), ("majority", 0)]
    )


def test_partition_heal_converges_logs():
    """Commands committed on both sides of a leader partition end up
    applied identically everywhere after the heal."""
    sim, cluster = build_cluster(3, seed=17)
    fabric = _fabric_of(cluster)
    acked = []

    def client():
        leader = yield from wait_leader(cluster)
        for i in range(3):
            status, _ = yield leader.propose(("pre", i))
            assert status == "ok"
            acked.append(("pre", i))
        pairs = _isolate_leader(fabric, cluster, leader)
        new_leader = None
        while new_leader is None:
            yield 0.05
            for n in cluster.nodes:
                if n.is_leader and n is not leader:
                    new_leader = n
        for i in range(3):
            status, _ = yield new_leader.propose(("post", i))
            assert status == "ok"
            acked.append(("post", i))
        fabric.heal(pairs)
        yield 3.0  # heartbeats propagate the authoritative log

    sim.spawn(client())
    sim.run(until=30.0)
    expected = [("pre", i) for i in range(3)] + [("post", i) for i in range(3)]
    for machine in cluster.machines:
        assert machine.applied == expected
    _check_all_invariants(cluster, acked=acked)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), n_ops=st.integers(1, 6))
def test_property_safety_under_leader_partitions(seed, n_ops):
    """For any seed: commit a batch, isolate the leader, commit a batch
    on the majority side, heal — every safety invariant holds and every
    acknowledged command survives in order."""
    sim, cluster = build_cluster(3, seed=seed)
    fabric = _fabric_of(cluster)
    acked = []

    def client():
        leader = yield from wait_leader(cluster)
        for i in range(n_ops):
            status, _ = yield leader.propose(("pre", i))
            if status == "ok":
                acked.append(("pre", i))
        _isolate_leader(fabric, cluster, leader)
        new_leader = None
        while new_leader is None:
            yield 0.05
            for n in cluster.nodes:
                if n.is_leader and n is not leader:
                    new_leader = n
        for i in range(n_ops):
            while True:
                try:
                    gate = new_leader.propose(("post", i))
                except NotLeaderError:
                    yield 0.05
                    continue
                status, _ = yield gate
                if status == "ok":
                    acked.append(("post", i))
                    break
        fabric.heal()
        yield 3.0

    sim.spawn(client())
    sim.run(until=60.0)
    _check_all_invariants(cluster, acked=acked)


def test_rsvc_client_retries_through_election():
    from repro.consensus import RsvcClient

    sim = Simulator()
    fabric = Fabric(sim, FabricSpec())
    addrs = [fabric.add_node(f"m{i}", 10e9) for i in range(3)]
    service = RaftCluster(sim, fabric, addrs, KvStateMachine, rng=RngStreams(seed=2))
    client = RsvcClient(service)

    def run_client():
        result = yield from client.invoke(("put", "pool:1", {"uuid": "x"}))
        assert result is None
        # crash the leader mid-session, then invoke again: must retry to
        # the new leader transparently
        leader = service.leader()
        leader.crash()
        sim.schedule(2.0, leader.restart)
        value = yield from client.invoke(("get", "pool:1"))
        return value

    task = sim.spawn(run_client())
    sim.run(until=20.0)
    assert task.result == {"uuid": "x"}


# ------------------------------------------------------------ commit rule
def _reference_commit_index(node):
    """The downward scan ``_advance_commit_index`` used to run, kept as
    the oracle for the quorum-th-largest rule that replaced it."""
    for index in range(node.last_log_index, node.commit_index, -1):
        if node.log[index].term != node.current_term:
            break  # Fig. 8: only commit own-term entries directly
        replicas = 1 + sum(1 for m in node.match_index.values() if m >= index)
        if replicas >= node._quorum():
            return index
    return node.commit_index


def _leader_in_state(n, terms, current_term, match, commit_index):
    """An ``n``-node cluster's node 0 forced into a leader state (the
    simulation is never run, so nothing else touches it)."""
    from repro.consensus.raft import LogEntry

    _sim, cluster = build_cluster(n)
    node = cluster.nodes[0]
    node.state = LEADER
    node.current_term = current_term
    node.log = [LogEntry(0, None)]
    node.log += [LogEntry(term, ("cmd", i)) for i, term in enumerate(terms)]
    node.match_index = dict(zip(node.peer_names, match))
    node.commit_index = node.last_applied = commit_index
    return node


@pytest.mark.parametrize("n", [1, 3, 5])
def test_commit_rule_matches_downward_scan_on_random_states(n):
    import random

    rng = random.Random(0xC0 + n)
    committed = 0
    for _ in range(400):
        length = rng.randrange(0, 13)
        terms = sorted(rng.randrange(1, 5) for _ in range(length))
        # Own-term tail, or a newer term with nothing of its own logged yet.
        current_term = (terms[-1] if terms else 1) + rng.randrange(0, 2)
        match = [rng.randrange(0, length + 1) for _ in range(n - 1)]
        if rng.random() < 0.2:
            match = match[: rng.randrange(0, n)]  # peers not heard from yet
        node = _leader_in_state(
            n, terms, current_term, match, rng.randrange(0, length + 1)
        )
        before = node.commit_index
        expected = _reference_commit_index(node)
        node._advance_commit_index()
        assert node.commit_index == expected, (terms, current_term, match, before)
        assert node.last_applied == max(before, expected)
        committed += expected > before
    assert committed > 20  # the sweep does exercise the commit branch


def test_commit_rule_leaves_a_stale_term_tail_alone():
    # Every follower holds the whole log, but its tail is from term 2 and
    # the leader is in term 3: Fig. 8 forbids committing it directly.
    node = _leader_in_state(3, [1, 2, 2], 3, [3, 3], 1)
    node._advance_commit_index()
    assert node.commit_index == 1 == _reference_commit_index(node)
    # One own-term entry on a quorum commits it and everything below.
    node = _leader_in_state(3, [1, 2, 2, 3], 3, [4, 0], 1)
    node._advance_commit_index()
    assert node.commit_index == 4 == node.last_applied


def test_commit_rule_on_a_single_node_cluster():
    node = _leader_in_state(1, [1, 1], 1, [], 0)
    node._advance_commit_index()
    assert node.commit_index == 2


# ------------------------------------------------------------ follower append
def _reference_append(log, prev_index, prev_term, entries):
    """The per-entry loop ``_on_append_entries`` used to run on every
    message, kept as the oracle for its scan-truncate-extend form: the
    follower's log afterwards and the reply's ``(success, match_index)``."""
    log = list(log)
    if not (prev_index < len(log) and log[prev_index].term == prev_term):
        return log, False, 0
    index = prev_index
    for entry in entries:
        index += 1
        if index < len(log):
            if log[index].term != entry.term:
                del log[index:]  # conflict: truncate
                log.append(entry)
        else:
            log.append(entry)
    return log, True, index


def test_follower_append_matches_per_entry_loop_on_random_logs():
    import random

    from repro.consensus.raft import FOLLOWER, LogEntry

    rng = random.Random(0xA77E)
    _sim, cluster = build_cluster(3)
    node = cluster.nodes[1]
    replies = []
    node._send = lambda _peer, _kind, body: replies.append(body)
    outcomes = {"shared": 0, "conflict": 0, "truncated": 0, "rejected": 0}
    for trial in range(600):
        terms = sorted(rng.randrange(1, 4) for _ in range(rng.randrange(0, 12)))
        leader = [LogEntry(0, None)]
        leader += [LogEntry(t, ("cmd", trial, i)) for i, t in enumerate(terms)]
        # The follower shares a prefix of the leader's entry objects, then
        # holds entries of its own: some of an equal term (equal, not the
        # same objects), some of another term (a conflict).
        follower = leader[: rng.randrange(1, len(leader) + 1)]
        term = follower[-1].term
        for i in range(rng.randrange(0, 5)):
            term = max(term, rng.randrange(0, 4))
            follower.append(LogEntry(term, ("own", trial, i)))
        prev_index = rng.randrange(0, len(leader))
        prev_term = leader[prev_index].term
        if rng.random() < 0.1:
            prev_term += 1  # consistency check fails
        # A delayed message may carry a shorter suffix than the follower holds.
        entries = leader[prev_index + 1 : rng.randrange(prev_index + 1,
                                                        len(leader) + 1)]
        expected, success, match_index = _reference_append(
            follower, prev_index, prev_term, entries
        )
        node.state, node.current_term, node.commit_index = FOLLOWER, 5, 0
        node.log = list(follower)
        replies.clear()
        for _ in node._on_append_entries({
            "term": 5, "from": "n0", "from_id": 0, "prev_index": prev_index,
            "prev_term": prev_term, "entries": entries, "leader_commit": 0,
        }):
            pass
        assert [id(e) for e in node.log] == [id(e) for e in expected], trial
        assert (replies[0]["success"], replies[0]["match_index"]) == (
            success, match_index), trial
        held = follower[prev_index + 1 : prev_index + 1 + len(entries)]
        if not success:
            outcomes["rejected"] += 1
        elif all(a is b for a, b in zip(held, entries)):
            outcomes["shared"] += 1
        elif len(expected) < len(follower):
            outcomes["truncated"] += 1
        else:
            outcomes["conflict"] += 1
    # the sweep reaches an overlap of shared objects, a term conflict (with
    # and without a shorter log afterwards) and a failed consistency check
    assert min(outcomes.values()) > 20, outcomes
