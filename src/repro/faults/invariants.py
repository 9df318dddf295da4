"""Raft safety invariants, checkable on any live cluster.

These are the classic properties from the Raft paper (§5.2, §5.3, §5.4,
Fig. 3), expressed over the observable state of
:class:`~repro.consensus.raft.RaftNode` instances:

- **Election safety** — at most one leader is ever elected per term
  (checked against ``leadership_history``, which records every win and
  survives crashes).
- **Log matching** — two logs agreeing on (index, term) agree on every
  earlier entry; checked pairwise over committed prefixes.
- **Leader completeness / no committed loss** — an entry committed
  anywhere appears in the log of every node whose log reaches it, with
  the same term and command.
- **Monotonic apply** — each state machine applies indices 1, 2, 3, …
  with no gap, skip, or repeat (restart rebuilds from scratch, so the
  record restarts at 1 — still monotonic).

Violations raise :class:`InvariantViolation`; the checkers double as the
assertion layer of the chaos harness (``tests/faults/harness.py``) and
the consensus test suite.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import ReproError


class InvariantViolation(ReproError):
    """A distributed-systems safety property was broken."""


def check_election_safety(nodes: Sequence) -> Dict[int, int]:
    """At most one node wins any term. Returns the term → winner map."""
    winners: Dict[int, int] = {}
    for node in nodes:
        for term, node_id in node.leadership_history:
            prev = winners.setdefault(term, node_id)
            if prev != node_id:
                raise InvariantViolation(
                    f"election safety: term {term} won by raft:{prev} "
                    f"and raft:{node_id}"
                )
    return winners


def check_log_matching(nodes: Sequence) -> None:
    """Committed prefixes agree pairwise on (term, command)."""
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            upto = min(a.commit_index, b.commit_index)
            for index in range(1, upto + 1):
                ea, eb = a.log[index], b.log[index]
                if (ea.term, ea.command) != (eb.term, eb.command):
                    raise InvariantViolation(
                        f"log matching: index {index} differs between "
                        f"raft:{a.node_id} ({ea.term}, {ea.command!r}) and "
                        f"raft:{b.node_id} ({eb.term}, {eb.command!r})"
                    )


def check_committed_entries_present(nodes: Sequence) -> int:
    """No committed entry is lost: the highest commit index reached by
    any node is covered by a quorum of logs that agree with the
    committer. Returns the cluster-wide max commit index."""
    if not nodes:
        return 0
    committer = max(nodes, key=lambda n: n.commit_index)
    high = committer.commit_index
    quorum = (len(nodes)) // 2 + 1
    for index in range(1, high + 1):
        entry = committer.log[index]
        holders = 0
        for node in nodes:
            if node.last_log_index >= index:
                other = node.log[index]
                if (other.term, other.command) == (entry.term, entry.command):
                    holders += 1
        if holders < quorum:
            raise InvariantViolation(
                f"committed entry {index} (term {entry.term}) present on "
                f"only {holders}/{len(nodes)} logs (quorum {quorum})"
            )
    return high


def check_applied_monotonic(nodes: Sequence) -> None:
    """Each state machine applied indices 1, 2, 3, … in order."""
    for node in nodes:
        expect = 0
        for index, _command in node.applied_results:
            expect += 1
            if index != expect:
                raise InvariantViolation(
                    f"raft:{node.node_id} applied index {index} where "
                    f"{expect} was expected (gap/repeat)"
                )


def check_commands_durable(
    nodes: Sequence, commands: Iterable
) -> None:
    """Every client-acknowledged command appears, in order, in the
    applied sequence of every node that has caught up to the cluster
    commit point (at-least-once: duplicates are permitted, loss and
    reordering are not)."""
    expected = list(commands)
    if not expected:
        return
    high = max(n.commit_index for n in nodes)
    for node in nodes:
        if node.commit_index < high:
            continue  # still catching up; covered by log matching
        applied = [cmd for _i, cmd in node.applied_results]
        cursor = 0
        for cmd in applied:
            if cursor < len(expected) and cmd == expected[cursor]:
                cursor += 1
        if cursor != len(expected):
            raise InvariantViolation(
                f"raft:{node.node_id} lost acknowledged command "
                f"{expected[cursor]!r} ({cursor}/{len(expected)} found)"
            )


def check_raft_safety(service, commands: Iterable = ()) -> Dict[str, int]:
    """Run every invariant over a ReplicatedService (or RaftCluster).

    Returns a deterministic summary (suitable for the chaos trace).
    """
    nodes = list(service.nodes)
    winners = check_election_safety(nodes)
    check_log_matching(nodes)
    high = check_committed_entries_present(nodes)
    check_applied_monotonic(nodes)
    check_commands_durable(nodes, commands)
    return {
        "terms_won": len(winners),
        "max_term": max(winners) if winners else 0,
        "max_commit": high,
        "live": sum(1 for n in nodes if n._alive),
    }


def check_replica_consistency(system) -> Dict[str, int]:
    """Storage-level invariant: redundancy groups agree wherever they
    should.

    For every object in every pool, members of a redundancy group that
    are UP (including a DOWNOUT slot's spare once its restore completed)
    must hold identical single values and identical extent bytes; for
    erasure-coded groups with every slot available, each stripe's parity
    must equal the XOR of its zero-padded data cells. Members that are
    DOWN, REBUILDING, or an un-restored spare are skipped —
    incompleteness there is exactly what the rebuild engine repairs.

    Raises :class:`InvariantViolation` on divergence; returns counters
    for the chaos trace.
    """
    from repro.daos.placement import PlacementMap, effective_groups
    from repro.daos.vos.extent import ExtentTree
    from repro.daos.vos.payload import Payload
    from repro.rebuild.state import UP

    def normalize(value):
        if isinstance(value, Payload):
            return value.materialize()
        return value

    def shard_view(vc, oid):
        """(dkey, akey) -> comparable content for one member's shard."""
        view = {}
        for dkey, akey, value in vc.walk(oid):
            if isinstance(value, ExtentTree):
                if value.size:
                    view[(dkey, akey)] = (
                        "array", value.read(0, value.size).materialize()
                    )
            elif value.history:
                epoch, latest = value.history[-1]
                view[(dkey, akey)] = ("single", normalize(latest))
        return view

    counts = {"pools": 0, "objects": 0, "groups": 0}
    for pool_uuid in sorted(system._pool_maps):
        pool_map = system._pool_maps[pool_uuid]
        counts["pools"] += 1
        placement = PlacementMap(pool_map.n_targets)
        inventory = set()
        for engine in system.engines:
            for shard in engine.pools.get(pool_uuid, {}).values():
                for cont_uuid, vc in shard.containers.items():
                    for oid in vc.objects:
                        inventory.add((cont_uuid, oid))

        def vc_of(tid, cont_uuid):
            ref = system.target(tid)
            return ref.engine.container_shard(
                pool_uuid, ref.local_tid, cont_uuid
            )

        def slot_ready(orig, actual):
            if pool_map.state_of(actual) != UP:
                return False
            if actual == orig:
                return True
            status = pool_map.statuses.get(orig)
            return status is not None and status.rebuilt

        for cont_uuid, oid in sorted(
            inventory, key=lambda item: (item[0], item[1].hi, item[1].lo)
        ):
            counts["objects"] += 1
            layout = placement.layout(oid)
            effective = effective_groups(layout, pool_map.downout)
            for group, egroup in zip(layout.groups, effective):
                ready = [
                    actual
                    for orig, actual in zip(group, egroup)
                    if slot_ready(orig, actual)
                ]
                if len(ready) < 2:
                    continue
                counts["groups"] += 1
                if oid.oclass.is_ec:
                    _check_ec_group(
                        pool_uuid, oid, group, egroup, ready,
                        oid.oclass.ec_k, vc_of, cont_uuid, slot_ready,
                    )
                else:
                    base_tid = ready[0]
                    base = shard_view(vc_of(base_tid, cont_uuid), oid)
                    for tid in ready[1:]:
                        other = shard_view(vc_of(tid, cont_uuid), oid)
                        if other != base:
                            raise InvariantViolation(
                                f"replica divergence on {oid} "
                                f"(pool {pool_uuid}): target {tid} vs "
                                f"{base_tid}"
                            )
    return counts


def _check_ec_group(
    pool_uuid, oid, group, egroup, ready, k, vc_of, cont_uuid, slot_ready
):
    """Parity = XOR of zero-padded data cells, per (dkey, akey) stripe —
    only checkable when the whole group is available."""
    from repro.daos.vos.extent import ExtentTree

    if len(ready) < len(group):
        return  # degraded group: parity equation has unknowns
    actuals = [actual for _orig, actual in zip(group, egroup)]

    def trees(tid):
        return {
            (dkey, akey): value.read(0, value.size).materialize()
            for dkey, akey, value in vc_of(tid, cont_uuid).walk(oid)
            if isinstance(value, ExtentTree) and value.size
        }

    member_data = [trees(tid) for tid in actuals]
    parity_data = member_data[k]  # first parity shard
    stripe_keys = set()
    for data in member_data:
        stripe_keys.update(data)
    for key in sorted(stripe_keys):
        parity = parity_data.get(key)
        if parity is None:
            raise InvariantViolation(
                f"EC group of {oid} (pool {pool_uuid}): stripe {key!r} "
                "has data but no parity"
            )
        acc = bytearray(len(parity))
        for ci in range(k):
            cell = member_data[ci].get(key, b"")
            for i, byte in enumerate(cell[: len(parity)]):
                acc[i] ^= byte
        if bytes(acc) != parity:
            raise InvariantViolation(
                f"EC parity mismatch on {oid} (pool {pool_uuid}), "
                f"stripe {key!r}"
            )
