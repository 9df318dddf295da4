"""Integration tests: DAOS system, client, object KV + array I/O."""

import gc

import pytest

from repro.cluster import small_cluster
from repro.daos.oclass import RP_2G1, S1, S2, SX, oclass_by_name
from repro.daos.placement import HEALTHY, HEALTHY_SOLO, SOLO_GROUPS
from repro.daos.vos.payload import PatternPayload
from repro.errors import DerDataLoss, DerExist, DerNonexist
from repro.units import KiB, MiB


@pytest.fixture(scope="module")
def cluster():
    return small_cluster(server_nodes=2, client_nodes=2, targets_per_engine=2)


@pytest.fixture(scope="module")
def cont(cluster):
    client = cluster.new_client(0)

    def setup():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("obj-tests", oclass="S2")
        return cont

    return cluster.run(setup())


def test_pool_boot(cluster):
    assert cluster.pool.label == "tank"
    assert cluster.pool.n_targets == 8  # 2 servers x 2 engines x 2 targets
    assert cluster.daos.svc.leader() is not None


def test_pool_connect_unknown_label(cluster):
    client = cluster.new_client(0)

    def go():
        try:
            yield from client.connect_pool("nope")
        except DerNonexist:
            return "missing"

    assert cluster.run(go()) == "missing"


def test_container_create_open_and_props(cluster, cont):
    client = cluster.new_client(1)

    def go():
        pool = yield from client.connect_pool("tank")
        opened = yield from pool.open_container("obj-tests")
        return opened

    opened = cluster.run(go())
    assert opened.uuid == cont.uuid
    assert opened.default_oclass is oclass_by_name("S2")
    assert opened.chunk_size == MiB


def test_duplicate_container_label_rejected(cluster, cont):
    def go():
        try:
            yield from cont.pool.create_container("obj-tests")
        except DerExist:
            return "dup"

    assert cluster.run(go()) == "dup"


def test_oid_allocation_unique_across_clients(cluster, cont):
    client2 = cluster.new_client(1)

    def go():
        pool = yield from client2.connect_pool("tank")
        other = yield from pool.open_container("obj-tests")
        oids = []
        for _ in range(5):
            oids.append((yield from cont.alloc_oid()))
            oids.append((yield from other.alloc_oid()))
        return oids

    oids = cluster.run(go())
    assert len({(o.hi, o.lo) for o in oids}) == 10
    assert all(oid.oclass is oclass_by_name("S2") for oid in oids)


def test_kv_put_get_roundtrip(cluster, cont):
    def go():
        oid = yield from cont.alloc_oid(S1)
        obj = cont.open_object(oid)
        yield from obj.put(b"dir-entry", b"inode", {"mode": 0o644, "size": 0})
        value = yield from obj.get(b"dir-entry", b"inode")
        obj.close()
        return value

    assert cluster.run(go()) == {"mode": 0o644, "size": 0}


def test_kv_get_missing_raises(cluster, cont):
    def go():
        oid = yield from cont.alloc_oid(S1)
        obj = cont.open_object(oid)
        try:
            yield from obj.get(b"nope", b"x")
        except DerNonexist:
            return "missing"

    assert cluster.run(go()) == "missing"


def test_kv_punch_and_list_dkeys(cluster, cont):
    def go():
        oid = yield from cont.alloc_oid(S2)
        obj = cont.open_object(oid)
        for name in (b"c", b"a", b"b"):
            yield from obj.put(name, b"e", name.decode())
        keys_before = yield from obj.list_dkeys()
        yield from obj.punch_dkey(b"b")
        try:
            yield from obj.get(b"b", b"e")
            visible = True
        except DerNonexist:
            visible = False
        return keys_before, visible, (yield from obj.list_dkeys())

    keys_before, visible, keys_after = cluster.run(go())
    assert keys_before == [b"a", b"b", b"c"]
    assert visible is False
    assert keys_after == [b"a", b"c"]


def test_array_write_read_roundtrip(cluster, cont):
    def go():
        oid = yield from cont.alloc_oid(S2)
        obj = cont.open_object(oid)
        data = bytes(range(256)) * 16  # 4 KiB
        yield from obj.write(0, data)
        back = yield from obj.read(0, len(data))
        obj.close()
        return data, back.materialize()

    data, back = cluster.run(go())
    assert back == data


def test_array_write_crossing_chunk_boundary(cluster, cont):
    def go():
        oid = yield from cont.alloc_oid(S2)
        obj = cont.open_object(oid)
        payload = PatternPayload(seed=11, origin=0, nbytes=3 * MiB)
        yield from obj.write(512 * KiB, payload, chunk_size=MiB)
        back = yield from obj.read(512 * KiB, 3 * MiB, chunk_size=MiB)
        size = yield from obj.size(chunk_size=MiB)
        obj.close()
        return back, size

    back, size = cluster.run(go())
    assert back == PatternPayload(seed=11, origin=0, nbytes=3 * MiB)
    assert size == 512 * KiB + 3 * MiB


def test_array_sparse_read_zero_fills(cluster, cont):
    def go():
        oid = yield from cont.alloc_oid(S2)
        obj = cont.open_object(oid)
        yield from obj.write(2 * MiB, b"tail")
        head = yield from obj.read(0, 8)
        obj.close()
        return head.materialize()

    assert cluster.run(go()) == b"\x00" * 8


def test_array_punch_range(cluster, cont):
    def go():
        oid = yield from cont.alloc_oid(S2)
        obj = cont.open_object(oid)
        yield from obj.write(0, b"A" * 1024)
        yield from obj.punch_range(100, 200)
        back = yield from obj.read(0, 1024)
        obj.close()
        return back.materialize()

    data = cluster.run(go())
    assert data[:100] == b"A" * 100
    assert data[100:300] == b"\x00" * 200
    assert data[300:] == b"A" * 724


def test_sx_object_spreads_chunks_across_targets(cluster, cont):
    def go():
        oid = yield from cont.alloc_oid(SX)
        obj = cont.open_object(oid)
        yield from obj.write(0, PatternPayload(seed=1, origin=0, nbytes=8 * MiB))
        touched = set()
        for chunk in range(8):
            touched.add(obj.layout.targets_for_dkey(chunk)[0])
        obj.close()
        return touched

    touched = cluster.run(go())
    assert len(touched) >= 4  # 8 chunks over 8 targets: decent spread


def test_io_takes_simulated_time_and_scales(cluster, cont):
    def timed(nbytes):
        def go():
            oid = yield from cont.alloc_oid(S2)
            obj = cont.open_object(oid)
            start = cluster.sim.now
            yield from obj.write(
                0, PatternPayload(seed=2, origin=0, nbytes=nbytes)
            )
            elapsed = cluster.sim.now - start
            obj.close()
            return elapsed

        return cluster.run(go())

    small = timed(1 * MiB)
    big = timed(64 * MiB)
    assert small > 0
    assert big > small * 4


def test_replicated_object_survives_target_exclusion(cluster):
    client = cluster.new_client(0)

    def go():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("repl", oclass="RP_2G1")
        oid = yield from cont.alloc_oid(RP_2G1)
        obj = cont.open_object(oid)
        yield from obj.write(0, b"precious data")
        leader = obj.layout.targets_for_dkey(0)[0]
        yield from cluster.daos.exclude_target(pool.pool_map.uuid, leader)
        yield from pool.refresh_map()
        obj2 = cont.open_object(oid)
        back = yield from obj2.read(0, 13)
        obj.close()
        obj2.close()
        return back.materialize()

    assert cluster.run(go()) == b"precious data"


def test_unreplicated_object_fails_when_target_excluded(cluster):
    client = cluster.new_client(0)

    def go():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("fragile", oclass="S1")
        # Skip OIDs landing on targets excluded by earlier tests: this
        # test needs to start from a live target and lose it.
        while True:
            oid = yield from cont.alloc_oid(S1)
            obj = cont.open_object(oid)
            if obj.layout.targets_for_dkey(0)[0] not in pool.pool_map.excluded:
                break
            obj.close()
        yield from obj.write(0, b"gone")
        victim = obj.layout.targets_for_dkey(0)[0]
        yield from cluster.daos.exclude_target(pool.pool_map.uuid, victim)
        yield from pool.refresh_map()
        obj2 = cont.open_object(oid)
        try:
            yield from obj2.read(0, 4)
        except DerDataLoss:
            return "lost"
        finally:
            obj.close()
            obj2.close()

    assert cluster.run(go()) == "lost"


def test_healthy_sx_handle_placement_is_untracked_by_the_collector():
    """A handle's layout groups and routes live as long as the handle.
    As tuples of ints and bools the cyclic collector untracks them,
    instead of promoting them with the handle to the oldest generation:
    the healthy routes, and the degraded ones once a target is DOWN.
    Each pass untracks one level of nesting; routes nest three deep."""
    cluster = small_cluster(server_nodes=2, client_nodes=1,
                            targets_per_engine=2)
    client = cluster.new_client(0)

    def go():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("gc", oclass="SX")
        obj = cont.open_object((yield from cont.alloc_oid(SX)))
        yield from obj.write(0, PatternPayload(seed=1, origin=0, nbytes=MiB))
        return obj

    obj = cluster.run(go())
    pool = obj.cont.pool
    assert not pool.pool_map.statuses  # healthy
    groups = obj.layout.groups
    for degraded in (False, True):
        if degraded:
            cluster.run(cluster.daos.exclude_target(pool.pool_map.uuid, 0))
            cluster.run(pool.refresh_map())
            assert pool.pool_map.statuses  # target 0 is DOWN
        routes = obj._routes()
        assert len(groups) == len(routes) == 8
        for _ in range(3):
            gc.collect()
        for held in (groups, *groups, routes, *routes):
            assert type(held) is tuple and not gc.is_tracked(held)


def _open_sx_handles(cluster, per_client):
    """``per_client`` SX handles, on distinct objects, from each of two
    clients of ``cluster`` (one container)."""

    def go(client, create):
        pool = yield from client.connect_pool("tank")
        if create:
            cont = yield from pool.create_container("share", oclass="SX")
        else:
            cont = yield from pool.open_container("share")
        handles = []
        for _ in range(per_client):
            handles.append(cont.open_object((yield from cont.alloc_oid(SX))))
        return pool, handles

    return [cluster.run(go(cluster.new_client(i), i == 0)) for i in range(2)]


def test_sx_handles_of_two_clients_share_per_target_placement():
    """Placement metadata that depends on a target id alone exists once
    per target: two clients' SX handles hold the very same width-1
    groups, healthy route entries and healthy routes, and opening many
    objects grows the shared tables no further than the target count."""
    cluster = small_cluster(server_nodes=2, client_nodes=2,
                            targets_per_engine=2)
    n_targets = cluster.pool.n_targets
    sizes = (len(SOLO_GROUPS), len(HEALTHY), len(HEALTHY_SOLO))
    (_pool, mine), (_pool, theirs) = _open_sx_handles(cluster, 100)
    assert sizes == (len(SOLO_GROUPS), len(HEALTHY), len(HEALTHY_SOLO))
    assert min(sizes) >= n_targets
    for handle in mine + theirs:
        assert len(handle.layout.groups) == n_targets
        for group, route in zip(handle.layout.groups, handle._routes()):
            (t,) = group
            assert group is SOLO_GROUPS[t] and route is HEALTHY_SOLO[t]
            assert route[0] is HEALTHY[t] == (t, True, True)


def test_down_target_gives_its_handle_a_degraded_route_of_its_own():
    cluster = small_cluster(server_nodes=2, client_nodes=2,
                            targets_per_engine=2)
    (pool, (obj,)), (_pool, (other,)) = _open_sx_handles(cluster, 1)
    tables = [list(table) for table in (SOLO_GROUPS, HEALTHY, HEALTHY_SOLO)]
    victim = obj.layout.groups[0][0]
    cluster.run(cluster.daos.exclude_target(pool.pool_map.uuid, victim))
    cluster.run(pool.refresh_map())
    routes = obj._routes()
    assert routes[0] == ((victim, False, False),)
    assert routes[0] is not HEALTHY_SOLO[victim]
    for (t,), route in zip(obj.layout.groups[1:], routes[1:]):
        # the other targets are UP: fresh group tuples, shared entries
        assert route == ((t, True, True),) and route[0] is HEALTHY[t]
    # the other client has not refreshed its map: still all shared
    assert all(route is HEALTHY_SOLO[t] for (t,), route in
               zip(other.layout.groups, other._routes()))
    for table, before in zip((SOLO_GROUPS, HEALTHY, HEALTHY_SOLO), tables):
        assert len(table) == len(before)
        assert all(a is b for a, b in zip(table, before))
    assert HEALTHY[victim] == (victim, True, True)
