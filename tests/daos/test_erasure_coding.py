"""Erasure-coded object classes: parity, degraded reads, geometry."""

import pytest

from repro.cluster import small_cluster
from repro.daos.oclass import EC_2P1G1, EC_4P1G1, S2, oclass_by_name
from repro.daos.vos.payload import (
    BytesPayload,
    PatternPayload,
    XorPayload,
    ZeroPayload,
)
from repro.errors import DerDataLoss, DerInval
from repro.units import KiB, MiB
from tests.daos.test_engine_and_capacity import used


def test_xor_payload_algebra():
    a = BytesPayload(bytes(range(16)))
    b = BytesPayload(bytes(reversed(range(16))))
    parity = XorPayload([a, b])
    # XOR of parity with one part recovers the other
    recovered = XorPayload([parity, a])
    assert recovered.materialize() == b.materialize()
    # slicing commutes with XOR
    assert parity.slice(4, 12).materialize() == parity.materialize()[4:12]
    with pytest.raises(ValueError):
        XorPayload([])
    with pytest.raises(ValueError):
        XorPayload([a, ZeroPayload(3)])


def test_ec_class_geometry():
    assert EC_2P1G1.group_width == 3
    # shards in a 16-target pool: groups x group width
    for oclass, shards in ((EC_2P1G1, 3), (EC_4P1G1, 5),
                           (oclass_by_name("EC_2P1GX"), 15)):  # 5 groups x 3
        assert oclass.group_count(16) * oclass.group_width == shards
    assert EC_2P1G1.is_ec and EC_2P1G1.rdd_nr == 1
    assert not S2.is_ec


@pytest.fixture(scope="module")
def cluster():
    return small_cluster(server_nodes=2, client_nodes=1,
                         targets_per_engine=2)


@pytest.fixture(scope="module")
def cont(cluster):
    client = cluster.new_client(0)

    def setup():
        pool = yield from client.connect_pool("tank")
        return (yield from pool.create_container("ec-tests",
                                                 oclass="EC_2P1G1"))

    return cluster.run(setup())


def test_ec_write_read_roundtrip(cluster, cont):
    def go():
        oid = yield from cont.alloc_oid(EC_2P1G1)
        obj = cont.open_object(oid)
        pattern = PatternPayload(seed=5, origin=0, nbytes=4 * MiB)
        yield from obj.write(0, pattern, chunk_size=MiB)
        back = yield from obj.read(0, 4 * MiB, chunk_size=MiB)
        size = yield from obj.size(chunk_size=MiB)
        obj.close()
        return back, size

    back, size = cluster.run(go())
    assert back == PatternPayload(seed=5, origin=0, nbytes=4 * MiB)
    assert size == 4 * MiB


def test_ec_short_final_stripe(cluster, cont):
    def go():
        oid = yield from cont.alloc_oid(EC_2P1G1)
        obj = cont.open_object(oid)
        data = b"q" * (MiB + 300 * KiB)  # one full stripe + a short one
        yield from obj.write(0, data, chunk_size=MiB)
        back = yield from obj.read(0, len(data), chunk_size=MiB)
        size = yield from obj.size(chunk_size=MiB)
        obj.close()
        return back.materialize(), size, len(data)

    back, size, expected = cluster.run(go())
    assert back == b"q" * expected
    assert size == expected


def test_ec_unaligned_write_rejected(cluster, cont):
    def go():
        oid = yield from cont.alloc_oid(EC_2P1G1)
        obj = cont.open_object(oid)
        try:
            yield from obj.write(100, b"x" * KiB, chunk_size=MiB)
        except DerInval:
            return "rejected"
        finally:
            obj.close()

    assert cluster.run(go()) == "rejected"


def test_ec_chunk_not_divisible_rejected(cluster, cont):
    def go():
        oid = yield from cont.alloc_oid(EC_2P1G1)
        obj = cont.open_object(oid)
        try:
            yield from obj.write(0, b"x" * 33, chunk_size=33)  # 33 % 2 != 0
        except DerInval:
            return "rejected"
        finally:
            obj.close()

    assert cluster.run(go()) == "rejected"


@pytest.mark.parametrize(
    "victim_pos", [0, 1, 2], ids=["data-cell-0", "data-cell-1", "parity"]
)
def test_ec_degraded_read_reconstructs_content(victim_pos):
    """Losing ANY single shard of an EC_2P1 group — either data cell or
    the parity — leaves every byte readable. A fresh cluster per victim
    keeps the exclusions independent."""
    fresh = small_cluster(server_nodes=2, client_nodes=1,
                          targets_per_engine=2)
    client = fresh.new_client(0)

    def go():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("ec-degraded",
                                                oclass="EC_2P1G1")
        oid = yield from cont.alloc_oid(EC_2P1G1)
        obj = cont.open_object(oid)
        pattern = PatternPayload(seed=9, origin=0, nbytes=2 * MiB)
        yield from obj.write(0, pattern, chunk_size=MiB)
        # kill the chosen cell's target (cells 0..k-1 are data, k.. parity)
        victim = obj.layout.targets_for_dkey(0)[victim_pos]
        yield from fresh.daos.exclude_target(pool.pool_map.uuid, victim)
        yield from pool.refresh_map()
        degraded = cont.open_object(oid)
        back = yield from degraded.read(0, 2 * MiB, chunk_size=MiB)
        obj.close()
        degraded.close()
        return back, pattern

    back, pattern = fresh.run(go())
    assert back.materialize() == pattern.materialize()


def test_ec_double_failure_fails(cluster):
    client = cluster.new_client(0)

    def go():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("ec-dead",
                                                oclass="EC_2P1G1")
        oid = yield from cont.alloc_oid(EC_2P1G1)
        obj = cont.open_object(oid)
        yield from obj.write(0, b"d" * MiB, chunk_size=MiB)
        group = obj.layout.targets_for_dkey(0)
        # lose one data cell AND the parity: unrecoverable with p=1
        yield from cluster.daos.exclude_target(pool.pool_map.uuid, group[0])
        yield from cluster.daos.exclude_target(pool.pool_map.uuid, group[2])
        yield from pool.refresh_map()
        degraded = cont.open_object(oid)
        try:
            yield from degraded.read(0, MiB, chunk_size=MiB)
        except DerDataLoss:
            return "lost"
        finally:
            obj.close()
            degraded.close()

    assert cluster.run(go()) == "lost"


def test_ec_stripe_write_losing_a_data_cell_and_parity_fails():
    """A stripe write that can land on only one of EC_2P1's three slots
    (data cell 0 and the parity excluded) is data loss, not a success the
    read-back then cannot reconstruct."""
    fresh = small_cluster(server_nodes=2, client_nodes=1,
                          targets_per_engine=2)
    client = fresh.new_client(0)

    def go():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("ec-lossy-write",
                                                oclass="EC_2P1G1")
        oid = yield from cont.alloc_oid(EC_2P1G1)
        obj = cont.open_object(oid)
        group = obj.layout.targets_for_dkey(0)
        yield from fresh.daos.exclude_target(pool.pool_map.uuid, group[0])
        yield from fresh.daos.exclude_target(pool.pool_map.uuid, group[2])
        yield from pool.refresh_map()
        try:
            return (yield from obj.write(0, b"w" * MiB, chunk_size=MiB))
        except DerDataLoss:
            return "lost"
        finally:
            obj.close()

    assert fresh.run(go()) == "lost"


@pytest.fixture()
def fresh_cluster():
    # The exclusion tests above poison the module cluster's pool map;
    # amplification accounting needs every target live. Enough targets
    # that aggregate target capacity exceeds the client NIC — the wire,
    # not target service, must be the binding constraint for the
    # timing variant below.
    return small_cluster(server_nodes=2, client_nodes=1,
                         targets_per_engine=4)


def test_ec_write_amplification_in_capacity(fresh_cluster):
    """EC_2P1 stores 1.5x the bytes of the plain class for the same data."""
    cluster = fresh_cluster
    client = cluster.new_client(0)

    def used_delta(oclass_name):
        def go():
            pool = yield from client.connect_pool("tank")
            cont = yield from pool.create_container(
                f"amp-{oclass_name}", oclass=oclass_name
            )
            before = used(cluster, pool)
            oid = yield from cont.alloc_oid()
            obj = cont.open_object(oid)
            yield from obj.write(
                0, PatternPayload(seed=1, origin=0, nbytes=16 * MiB),
                chunk_size=MiB,
            )
            after = used(cluster, pool)
            obj.close()
            return after - before

        return cluster.run(go())

    plain = used_delta("S2")
    coded = used_delta("EC_2P1G1")
    assert plain == 16 * MiB
    assert coded == 24 * MiB  # + one parity cell per stripe


def test_ec_write_amplification_in_time_under_nic_saturation(fresh_cluster):
    """With the client NIC saturated, the 1.5x wire amplification shows
    up as ~1.5x longer writes."""
    cluster = fresh_cluster
    client = cluster.new_client(0)

    def timed(oclass_name):
        def setup():
            pool = yield from client.connect_pool("tank")
            return (
                yield from pool.create_container(
                    f"amp-t-{oclass_name}", oclass=oclass_name
                )
            )

        cont = cluster.run(setup())

        def writer(i):
            def go():
                oid = yield from cont.alloc_oid()
                obj = cont.open_object(oid)
                start = cluster.sim.now
                yield from obj.write(
                    0, PatternPayload(seed=i, origin=0, nbytes=8 * MiB),
                    chunk_size=MiB,
                )
                elapsed = cluster.sim.now - start
                obj.close()
                return elapsed

            return go()

        tasks = [cluster.sim.spawn(writer(i)).defuse() for i in range(12)]
        return max(cluster.sim.run_until_complete(t) for t in tasks)

    plain = timed("S2")
    coded = timed("EC_2P1G1")
    # The full 1.5x only shows when the NIC is the sole constraint; at
    # this test scale residual target hotspots dilute it, so assert the
    # direction with margin rather than the asymptote.
    assert coded > plain * 1.1
