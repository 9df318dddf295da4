"""Error-path consistency in degraded mode.

Losing the only copy of data is :class:`DerDataLoss` (→ EIO at the
POSIX layer) — a different failure from "never existed"
(:class:`DerNonexist` → ENOENT). These tests pin the typed error on
every degraded path: unreplicated reads *and* writes, EC past its
parity budget, and the POSIX translation.
"""

import pytest

from repro.cluster import small_cluster
from repro.daos.oclass import oclass_by_name
from repro.errors import DaosError, DerDataLoss, DerNonexist, fs_error_from_daos

PAYLOAD = b"x" * 4096


def run_catching(cluster, gen):
    """Drive ``gen``; return ("ok", result) or ("err", DaosError)."""

    def wrapper():
        try:
            result = yield from gen
        except DaosError as exc:
            return ("err", exc)
        return ("ok", result)

    return cluster.run(wrapper())


def expect_data_loss(cluster, gen):
    status, value = run_catching(cluster, gen)
    assert status == "err", f"expected DerDataLoss, got ok: {value!r}"
    assert isinstance(value, DerDataLoss), value
    assert value.code == "DER_DATA_LOSS"
    return value


def _excluded_setup(oclass_name, server_nodes=2):
    """Cluster + object of ``oclass_name`` with data written, plus the
    targets holding dkey/chunk 0."""
    cluster = small_cluster(server_nodes=server_nodes, client_nodes=1)
    client = cluster.new_client(0)
    state = {}

    def setup():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("c", oclass=oclass_name)
        oid = yield from cont.alloc_oid(oclass_by_name(oclass_name))
        obj = cont.open_object(oid)
        yield from obj.write(0, PAYLOAD)
        state.update(pool=pool, cont=cont, obj=obj)
        return obj.layout.targets_for_dkey(0)

    targets = cluster.run(setup())
    return cluster, state, targets


def _exclude(cluster, state, tid):
    def go():
        yield from cluster.daos.exclude_target(
            state["pool"].pool_map.uuid, tid
        )
        yield from state["pool"].refresh_map()

    cluster.run(go())


def test_s1_read_after_exclusion_raises_data_loss():
    cluster, state, targets = _excluded_setup("S1")
    assert len(targets) == 1
    _exclude(cluster, state, targets[0])
    err = expect_data_loss(cluster, state["obj"].read(0, len(PAYLOAD)))
    assert "excluded" in str(err)


def test_s1_write_after_exclusion_raises_data_loss():
    cluster, state, targets = _excluded_setup("S1")
    _exclude(cluster, state, targets[0])
    expect_data_loss(cluster, state["obj"].write(0, PAYLOAD))


def test_s1_kv_ops_after_exclusion_raise_data_loss():
    cluster, state, targets = _excluded_setup("S1")
    _exclude(cluster, state, targets[0])
    expect_data_loss(cluster, state["obj"].put("k", b"a", "v"))
    expect_data_loss(cluster, state["obj"].get("k", b"a"))


def test_s1_punches_after_exclusion_raise_data_loss():
    """A punch that can reach no target must not report success: every
    mutating op shares the rule ``put`` / ``write`` follow (these three
    used to return False / 0 / True having sent nothing)."""
    cluster, state, targets = _excluded_setup("S1")
    _exclude(cluster, state, targets[0])
    obj = state["obj"]
    expect_data_loss(cluster, obj.punch_dkey(0))
    expect_data_loss(cluster, obj.punch_range(0, len(PAYLOAD)))
    expect_data_loss(cluster, obj.punch_object())


def test_rp2_survives_one_exclusion_dies_on_two():
    cluster, state, targets = _excluded_setup("RP_2G1")
    assert len(targets) == 2
    _exclude(cluster, state, targets[0])
    status, data = run_catching(cluster, state["obj"].read(0, len(PAYLOAD)))
    assert status == "ok"
    assert data.materialize() == PAYLOAD  # degraded but whole
    _exclude(cluster, state, targets[1])
    expect_data_loss(cluster, state["obj"].read(0, len(PAYLOAD)))


def test_ec_beyond_parity_budget_raises_data_loss():
    # EC_2P1 tolerates one lost shard; two is unrecoverable.
    cluster, state, targets = _excluded_setup("EC_2P1G1", server_nodes=3)
    assert len(targets) == 3
    _exclude(cluster, state, targets[0])
    status, data = run_catching(cluster, state["obj"].read(0, len(PAYLOAD)))
    assert status == "ok"
    assert data.materialize() == PAYLOAD  # reconstructed from parity
    _exclude(cluster, state, targets[1])
    expect_data_loss(cluster, state["obj"].read(0, len(PAYLOAD)))


def test_reintegration_restores_readability():
    """Reintegration brings the target back through REBUILDING: it serves
    no reads until the resync converges (here instantly — nothing was
    written during the window), then the pool map flips it UP."""
    cluster, state, targets = _excluded_setup("S1")
    _exclude(cluster, state, targets[0])
    expect_data_loss(cluster, state["obj"].read(0, len(PAYLOAD)))

    def reintegrate():
        yield from cluster.daos.reintegrate_target(
            state["pool"].pool_map.uuid, targets[0]
        )
        # while REBUILDING the target still serves no reads
        yield from state["pool"].refresh_map()
        try:
            yield from state["obj"].read(0, len(PAYLOAD))
        except DerDataLoss:
            pass
        else:
            raise AssertionError("REBUILDING target served a read")
        yield from cluster.daos.wait_rebuild(state["pool"].pool_map.uuid)
        yield from state["pool"].refresh_map()

    cluster.run(reintegrate())
    assert state["pool"].pool_map.statuses == {}
    status, data = run_catching(cluster, state["obj"].read(0, len(PAYLOAD)))
    assert status == "ok"
    assert data.materialize() == PAYLOAD


def test_data_loss_maps_to_eio_at_posix_layer():
    err = fs_error_from_daos(DerDataLoss("all replicas excluded"), "/f")
    assert err.errno_name == "EIO"
    # ...and stays distinct from the not-found path.
    assert fs_error_from_daos(DerNonexist("nope"), "/f").errno_name == "ENOENT"
