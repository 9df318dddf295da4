"""Tests for the cluster builders and presets."""

import pytest

from repro.cluster import (
    Cluster,
    LustreCluster,
    build_cluster,
    build_lustre_cluster,
    build_system,
    nextgenio,
    small_cluster,
)
from repro.units import GiB


def test_nextgenio_preset_geometry():
    cluster = nextgenio(client_nodes=3)
    assert len(cluster.servers) == 8
    assert len(cluster.clients) == 3
    assert cluster.daos.n_targets == 8 * 2 * 8  # servers x engines x targets
    assert cluster.pool.label == "tank"
    assert cluster.pool.n_targets == 128
    # a stable metadata leader exists after boot
    assert cluster.daos.svc.leader() is not None


def test_small_cluster_geometry():
    cluster = small_cluster(server_nodes=2, client_nodes=1,
                            targets_per_engine=2)
    assert cluster.daos.n_targets == 8
    assert cluster.pool.capacity_per_target == 4 * GiB


def test_cluster_new_client_binds_to_node():
    cluster = small_cluster(server_nodes=2, client_nodes=2,
                            targets_per_engine=2)
    client0 = cluster.new_client(0)
    client1 = cluster.new_client(1)
    assert client0.node is cluster.clients[0]
    assert client1.node is cluster.clients[1]
    assert client0.name != client1.name


def test_build_cluster_custom_seed_changes_nothing_structural():
    a = build_cluster(server_nodes=2, client_nodes=1, seed=1)
    b = build_cluster(server_nodes=2, client_nodes=1, seed=2)
    assert a.daos.n_targets == b.daos.n_targets
    assert a.pool.uuid == b.pool.uuid  # uuids are sequence-derived


def test_lustre_cluster_geometry_and_mount():
    cluster = build_lustre_cluster(server_nodes=2, client_nodes=2,
                                   stripe_count=4)
    assert len(cluster.fs.osts) == 2 * 2 * 8  # nodes x engines x targets
    assert cluster.fs.mds.default_stripe_count == 4
    mount = cluster.mount(1, name="probe")
    assert mount.node is cluster.clients[1]


def test_lustre_cluster_carries_and_uses_its_seed():
    lustre = build_lustre_cluster(server_nodes=2, client_nodes=1, seed=7)
    daos = build_cluster(server_nodes=2, client_nodes=1, seed=7)
    assert lustre.rng.seed == daos.rng.seed == 7
    default = build_lustre_cluster(server_nodes=2, client_nodes=1)
    assert default.rng.seed != 7
    # one observe() on either system
    for cluster in (lustre, daos):
        _tracer, registry = cluster.observe(tracing=False)
        assert registry is cluster.sim.metrics


def test_build_system_is_the_daos_or_lustre_switch():
    daos = build_system(False, server_nodes=2, client_nodes=1, seed=3)
    lustre = build_system(True, server_nodes=2, client_nodes=1, seed=3)
    assert isinstance(daos, Cluster) and daos.pool.label == "tank"
    assert isinstance(lustre, LustreCluster)
    assert [n.name for n in lustre.servers] == ["oss0", "oss1"]
    assert daos.rng.seed == lustre.rng.seed == 3
    # both are driven by the same two verbs
    assert type(daos).run is type(lustre).run
    assert type(daos).observe is type(lustre).observe


def test_target_refs_resolve_hardware():
    cluster = small_cluster(server_nodes=2, client_nodes=1,
                            targets_per_engine=2)
    for tid in range(cluster.daos.n_targets):
        ref = cluster.daos.target(tid)
        assert ref.tid == tid
        assert ref.hw.write_link.capacity > 0
        assert ref.engine.slot.targets[ref.local_tid] is ref.hw
