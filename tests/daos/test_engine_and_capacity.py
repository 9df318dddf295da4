"""Engine-level behaviours: capacity exhaustion, service queueing,
first-writer accounting, and stats."""

import pytest

from repro.cluster import build_cluster, small_cluster
from repro.daos.oclass import S1, S2
from repro.daos.vos.payload import PatternPayload
from repro.errors import DerNoSpace, DerNonexist
from repro.hardware.specs import EngineSpec
from repro.units import KiB, MiB


def used(cluster, pool):
    """Bytes the pool holds, summed over every engine's target shards."""
    return sum(shard.used for engine in cluster.daos.engines
               for shard in engine.pools[pool.pool_map.uuid].values())


@pytest.fixture()
def tiny_cluster():
    # 16 MiB per target: easy to fill
    return build_cluster(server_nodes=2, client_nodes=1,
                         engine_spec=EngineSpec(targets=2),
                         capacity_per_target=16 * MiB)


def test_target_runs_out_of_space(tiny_cluster):
    cluster = tiny_cluster
    client = cluster.new_client(0)

    def go():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("full", oclass="S1")
        oid = yield from cont.alloc_oid(S1)
        obj = cont.open_object(oid)
        written = 0
        try:
            # an S1 object lives on one 16 MiB target: the 17th MiB fails
            for i in range(17):
                yield from obj.write(i * MiB, PatternPayload(1, i * MiB, MiB))
                written += 1
        except DerNoSpace:
            return written
        finally:
            obj.close()

    written = cluster.run(go())
    assert 14 <= written <= 16


def test_punch_reclaims_space(tiny_cluster):
    cluster = tiny_cluster
    client = cluster.new_client(0)

    def go():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("reclaim", oclass="S1")
        oid = yield from cont.alloc_oid(S1)
        obj = cont.open_object(oid)
        for i in range(12):
            yield from obj.write(i * MiB, PatternPayload(1, i * MiB, MiB))
        before = used(cluster, pool)
        yield from obj.punch_range(0, 8 * MiB)
        after = used(cluster, pool)
        # the freed space is writable again
        for i in range(4):
            yield from obj.write(i * MiB, PatternPayload(2, i * MiB, MiB))
        obj.close()
        return before, after

    before, after = cluster.run(go())
    assert after <= before - 8 * MiB


def test_overwrites_do_not_leak_capacity(tiny_cluster):
    cluster = tiny_cluster
    client = cluster.new_client(0)

    def go():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("rewrite", oclass="S1")
        oid = yield from cont.alloc_oid(S1)
        obj = cont.open_object(oid)
        # overwrite the same MiB far more times than the target could
        # hold if overwrites leaked
        for _ in range(64):
            yield from obj.write(0, PatternPayload(3, 0, MiB))
        after = used(cluster, pool)
        obj.close()
        return after

    assert cluster.run(go()) < 3 * MiB


def test_engine_stats_count_rpcs_and_tree_creates():
    cluster = small_cluster(server_nodes=2, client_nodes=1,
                            targets_per_engine=2)
    client = cluster.new_client(0)

    def go():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("stats", oclass="S2")
        kv_obj = cont.open_object((yield from cont.alloc_oid(S2)))
        yield from kv_obj.put(b"k", b"a", 1)  # metadata RPC
        kv_obj.close()
        arr_obj = cont.open_object((yield from cont.alloc_oid(S2)))
        yield from arr_obj.write(0, b"x" * (2 * MiB))  # 2 shards: 2 creates
        arr_obj.close()

    cluster.run(go())
    rpcs = sum(e.stats["rpcs"] for e in cluster.daos.engines)
    creates = sum(e.stats["tree_creates"] for e in cluster.daos.engines)
    assert rpcs >= 1
    assert creates == 2


def test_first_write_cost_charged_once():
    cluster = small_cluster(server_nodes=2, client_nodes=1,
                            targets_per_engine=2)
    client = cluster.new_client(0)

    def go():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("warm", oclass="S1")
        oid = yield from cont.alloc_oid(S1)
        obj = cont.open_object(oid)
        start = cluster.sim.now
        yield from obj.write(0, b"a" * (256 * KiB))
        first = cluster.sim.now - start
        start = cluster.sim.now
        yield from obj.write(256 * KiB, b"b" * (256 * KiB))
        second = cluster.sim.now - start
        obj.close()
        return first, second

    first, second = cluster.run(go())
    # the first write pays VOS tree creation; the second does not
    assert first > second + 200e-6


def test_engine_target_credits_queue_metadata_storms():
    cluster = small_cluster(server_nodes=1, client_nodes=1,
                            targets_per_engine=1)
    client = cluster.new_client(0)

    def setup():
        pool = yield from client.connect_pool("tank")
        return (yield from pool.create_container("storm", oclass="S1"))

    cont = cluster.run(setup())

    def one_put(i):
        def go():
            oid_obj = cont.open_object(
                (yield from cont.alloc_oid(S1))
            )
            yield from oid_obj.put(b"k%d" % i, b"a", i)
            oid_obj.close()

        return go()

    # far more concurrent RPCs than one target's inflight credits
    start = cluster.sim.now
    tasks = [cluster.sim.spawn(one_put(i)).defuse() for i in range(64)]
    for task in tasks:
        cluster.sim.run_until_complete(task)
    elapsed = cluster.sim.now - start
    engine = cluster.daos.engines[0]
    # all ops served; total time at least ops x cpu / credits
    floor = 64 * engine.spec.per_rpc_cpu / engine.spec.target_inflight
    assert elapsed > floor


def test_kv_on_unknown_container_shard_fails():
    cluster = small_cluster(server_nodes=2, client_nodes=1,
                            targets_per_engine=2)
    client = cluster.new_client(0)

    def go():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("real", oclass="S1")
        cont.uuid = "cont-bogus"  # sabotage the handle
        oid = yield from cont.alloc_oid(S1)
        obj = cont.open_object(oid)
        try:
            yield from obj.put(b"k", b"a", 1)
        except DerNonexist:
            return "missing"
        finally:
            obj.close()

    assert cluster.run(go()) == "missing"
