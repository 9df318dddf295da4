"""Online resync acceptance: exclude → write during window → reintegrate.

The contract under test is the ISSUE acceptance scenario: a target is
excluded, the workload keeps writing (replicated and EC objects), the
target is reintegrated, the background resync drains — and every read
afterwards is byte-identical to a run that never saw a failure, even
when reads are forced through the previously-failed target.
"""

import random

import pytest

from repro.cluster import small_cluster
from repro.daos.oclass import oclass_by_name
from repro.daos.vos.payload import PatternPayload
from repro.rebuild import scheduler
from repro.units import MiB

BASE = PatternPayload(seed=1, origin=0, nbytes=2 * MiB)
DELTA = PatternPayload(seed=2, origin=MiB, nbytes=MiB)
EXPECTED = BASE.materialize()[:MiB] + DELTA.materialize()


def _array_scenario(oclass_name, fail=True, seed=7, read_through_victim=False,
                    victim=0, delta=DELTA):
    """Write 2 MiB, (optionally) exclude the group's ``victim`` slot,
    rewrite the second MiB during the window, reintegrate, drain the
    rebuild and read everything back. Returns (bytes, statuses)."""
    cluster = small_cluster(server_nodes=2, client_nodes=1,
                            targets_per_engine=2, seed=seed)
    client = cluster.new_client(0)

    def go():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("resync", oclass=oclass_name)
        oid = yield from cont.alloc_oid(oclass_by_name(oclass_name))
        obj = cont.open_object(oid)
        yield from obj.write(0, BASE, chunk_size=MiB)
        group = obj.layout.targets_for_dkey(0)
        uuid = pool.pool_map.uuid
        if fail:
            yield from cluster.daos.exclude_target(uuid, group[victim])
            yield from pool.refresh_map()
        yield from obj.write(MiB, delta, chunk_size=MiB)
        if fail:
            yield from cluster.daos.reintegrate_target(uuid, group[victim])
            yield from cluster.daos.wait_rebuild(uuid)
            yield from pool.refresh_map()
        if read_through_victim:
            # force reads off the rebuilt target: lose every *other*
            # group member the redundancy scheme can spare
            others = group[victim + 1:] + group[:victim]
            spares = others if oclass_name.startswith("RP") else others[:1]
            for other in spares:
                yield from cluster.daos.exclude_target(uuid, other)
            yield from pool.refresh_map()
        back = yield from obj.read(0, 2 * MiB, chunk_size=MiB)
        obj.close()
        return back.materialize(), dict(pool.pool_map.statuses)

    return cluster.run(go())


@pytest.mark.parametrize("oclass_name", ["RP_2G1", "EC_2P1G1"])
def test_resync_matches_failure_free_run(oclass_name):
    healthy, _ = _array_scenario(oclass_name, fail=False)
    healed, statuses = _array_scenario(oclass_name, fail=True)
    assert healthy == EXPECTED
    assert healed == healthy  # byte-identical to the never-failed run
    assert statuses == {}  # pool map fully healthy again


@pytest.mark.parametrize("oclass_name", ["RP_2G1", "EC_2P1G1"])
def test_rebuilt_target_serves_window_writes(oclass_name):
    """The proof that the resync actually moved bytes: after the heal,
    reads forced through the once-DOWN target still see the writes it
    missed."""
    healed, _ = _array_scenario(oclass_name, fail=True,
                                read_through_victim=True)
    assert healed == EXPECTED


def test_rebuilt_parity_cell_serves_degraded_reads():
    """Every case above rebuilds a data cell. Lose the *parity* slot of
    an EC_2P1G1 group through the window instead: the resync recomputes
    parity from the data cells, and a degraded read that then loses a
    data slot decodes byte-identical data from it."""
    # pattern payloads are XOR-linear in (seed, offset), which makes a
    # stale parity cell decode correctly; real bytes do not
    delta = random.Random(2).randbytes(MiB)
    healed, statuses = _array_scenario(
        "EC_2P1G1", fail=True, read_through_victim=True, victim=2,
        delta=delta,
    )
    assert healed == BASE.materialize()[:MiB] + delta
    assert len(statuses) == 1  # only the data slot excluded for the read


def test_re_excluding_a_rebuilding_target_cancels_its_resync(monkeypatch):
    cluster = small_cluster(server_nodes=2, client_nodes=1,
                            targets_per_engine=2, seed=19)
    monkeypatch.setattr(scheduler, "REBUILD_FRACTION", 0.05)  # a long migration
    client = cluster.new_client(0)

    def go():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("cancel", oclass="RP_2G1")
        oid = yield from cont.alloc_oid(oclass_by_name("RP_2G1"))
        obj = cont.open_object(oid)
        victim = obj.layout.targets_for_dkey(0)[0]
        uuid = pool.pool_map.uuid
        yield from cluster.daos.exclude_target(uuid, victim)
        yield from pool.refresh_map()
        yield from obj.write(
            0, PatternPayload(seed=3, origin=0, nbytes=32 * MiB),
            chunk_size=MiB,
        )
        yield from cluster.daos.reintegrate_target(uuid, victim)
        (job,) = cluster.daos.rebuild.jobs
        while job.status != "migrating":
            yield 1e-4
        yield from cluster.daos.exclude_target(uuid, victim)  # fails again
        query = yield from cluster.daos.wait_rebuild(uuid)  # must return
        yield from pool.refresh_map()
        obj.close()
        return job, query, pool.pool_map.state_of(victim)

    job, query, state = cluster.run(go())
    assert job.cancelled and job.status == "cancelled"
    assert job.bytes_moved < job.bytes_total
    assert state == "DOWN"  # never flipped UP
    assert query["rebuild"]["jobs_active"] == 0


def test_kv_resync_carries_window_updates():
    """KV singles resync at their original epochs: a key updated or
    inserted during the exclusion window reads its window value from the
    rebuilt replica."""
    cluster = small_cluster(server_nodes=2, client_nodes=1,
                            targets_per_engine=2, seed=13)
    client = cluster.new_client(0)

    def go():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("kv", oclass="RP_2G1")
        oid = yield from cont.alloc_oid(oclass_by_name("RP_2G1"))
        obj = cont.open_object(oid)
        yield from obj.put("keep", b"a", "old")
        group = obj.layout.targets_for_dkey("keep")
        uuid = pool.pool_map.uuid

        yield from cluster.daos.exclude_target(uuid, group[0])
        yield from pool.refresh_map()
        # the window: update and insert behind the DOWN target
        yield from obj.put("keep", b"a", "new")
        yield from obj.put("fresh", b"a", "window-born")

        yield from cluster.daos.reintegrate_target(uuid, group[0])
        yield from cluster.daos.wait_rebuild(uuid)
        yield from pool.refresh_map()
        # read through the rebuilt replica only
        yield from cluster.daos.exclude_target(uuid, group[1])
        yield from pool.refresh_map()

        keep = yield from obj.get("keep", b"a")
        fresh = yield from obj.get("fresh", b"a")
        obj.close()
        return keep, fresh

    assert cluster.run(go()) == ("new", "window-born")


def test_stale_client_write_is_fenced_and_retried():
    """A client holding a pre-exclusion pool map writes through a
    transparent DER_STALE refresh-retry — and the write still reaches the
    REBUILDING target, which is what makes the converge loop terminate."""
    cluster = small_cluster(server_nodes=2, client_nodes=1,
                            targets_per_engine=2, seed=17)
    client = cluster.new_client(0)

    def go():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("fence", oclass="RP_2G1")
        oid = yield from cont.alloc_oid(oclass_by_name("RP_2G1"))
        obj = cont.open_object(oid)
        yield from obj.put("k", b"a", "v0")
        group = obj.layout.targets_for_dkey("k")
        uuid = pool.pool_map.uuid

        # bump the map behind the client's back (no refresh_map here)
        yield from cluster.daos.exclude_target(uuid, group[0])
        yield from cluster.daos.reintegrate_target(uuid, group[0])
        stale_version = pool.pool_map.version

        # the engines fence the stale map; the client refreshes + retries
        yield from obj.put("k", b"a", "v1")
        refreshed_version = pool.pool_map.version
        yield from cluster.daos.wait_rebuild(uuid)
        yield from pool.refresh_map()

        # the retried write must have landed on the REBUILDING target:
        # read with the other replica gone
        yield from cluster.daos.exclude_target(uuid, group[1])
        yield from pool.refresh_map()
        got = yield from obj.get("k", b"a")
        obj.close()
        return stale_version, refreshed_version, got

    stale_version, refreshed_version, got = cluster.run(go())
    assert refreshed_version > stale_version  # the retry refreshed the map
    assert got == "v1"


def test_throttle_fraction_bounds_rebuild_bandwidth(monkeypatch):
    """The same rebuild takes substantially longer at a 5% bandwidth
    fraction than at the full bottleneck."""

    def rebuild_seconds(fraction):
        cluster = small_cluster(server_nodes=2, client_nodes=1,
                                targets_per_engine=2, seed=19)
        monkeypatch.setattr(scheduler, "REBUILD_FRACTION", fraction)
        client = cluster.new_client(0)

        def go():
            pool = yield from client.connect_pool("tank")
            cont = yield from pool.create_container("thr", oclass="RP_2G1")
            oid = yield from cont.alloc_oid(oclass_by_name("RP_2G1"))
            obj = cont.open_object(oid)
            group = obj.layout.targets_for_dkey(0)
            uuid = pool.pool_map.uuid
            yield from cluster.daos.exclude_target(uuid, group[0])
            yield from pool.refresh_map()
            # 32 MiB written during the window = 32 MiB to migrate
            yield from obj.write(
                0, PatternPayload(seed=3, origin=0, nbytes=32 * MiB),
                chunk_size=MiB,
            )
            yield from cluster.daos.reintegrate_target(uuid, group[0])
            start = cluster.sim.now
            yield from cluster.daos.wait_rebuild(uuid)
            elapsed = cluster.sim.now - start
            obj.close()
            return elapsed

        return cluster.run(go())

    full = rebuild_seconds(1.0)
    slow = rebuild_seconds(0.05)
    assert full > 0
    assert slow > 4 * full
