"""The public facade (``repro.daos.api``) and API-consistency shims."""

import warnings

import pytest

from repro.cluster import small_cluster
from repro.daos import api
from repro.errors import DerStale


@pytest.fixture(scope="module")
def cluster():
    c = small_cluster(server_nodes=2, client_nodes=1, targets_per_engine=2)
    c.observe()
    return c


@pytest.fixture(scope="module")
def cont(cluster):
    client = cluster.new_client(0)

    def setup():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("api-tests", oclass="S2")
        return cont

    return cluster.run(setup())


def test_facade_exports_resolve():
    for name in api.__all__:
        assert getattr(api, name) is not None, name


def test_facade_covers_the_advertised_surface():
    assert api.DaosClient.__module__ == "repro.daos.client"
    assert api.EventQueue.__module__ == "repro.daos.eq"
    assert api.oclass_by_name("RP_2G1") is api.RP_2G1
    assert issubclass(api.DerStale, api.DaosError)


def test_legacy_positional_chunk_size_is_a_type_error(cluster, cont):
    """The PR-5 deprecation window is over: chunk_size/akey are
    keyword-only on every array op, and old positional call sites fail
    loudly instead of warning."""
    def go():
        oid = yield from cont.alloc_oid()
        obj = cont.open_object(oid)
        rejected = []
        for attempt in (
            lambda: obj.write(0, b"x" * 64, 1 << 16),
            lambda: obj.read(0, 64, 1 << 16),
            lambda: obj.size(1 << 16),
            lambda: obj.punch_range(0, 64, 1 << 16),
        ):
            try:
                yield from attempt()
            except TypeError:
                rejected.append(True)
            else:
                rejected.append(False)
        obj.close()
        return rejected

    assert cluster.run(go()) == [True, True, True, True]


def test_keyword_flags_still_work(cluster, cont):
    def go():
        oid = yield from cont.alloc_oid()
        obj = cont.open_object(oid)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            yield from obj.write(0, b"x" * 64, chunk_size=1 << 16)
            payload = yield from obj.read(0, 64, chunk_size=1 << 16)
        obj.close()
        return payload.nbytes, [w.category for w in caught]

    nbytes, categories = cluster.run(go())
    assert nbytes == 64
    assert not categories


def test_der_stale_retries_surface_in_metrics(cluster, cont):
    metrics = cluster.sim.metrics
    assert metrics is not None

    def go():
        oid = yield from cont.alloc_oid()
        obj = cont.open_object(oid)
        calls = {"n": 0}

        def attempt():
            calls["n"] += 1
            yield 0.0
            if calls["n"] == 1:
                raise DerStale("fenced by test")
            return "ok"

        result = yield from obj._retry_stale(attempt)
        obj.close()
        return result

    before = metrics.counters.get("client.der_stale.retries")
    before = before.value if before is not None else 0
    assert cluster.run(go()) == "ok"
    after = metrics.counters["client.der_stale.retries"].value
    assert after == before + 1
    assert "client.der_stale.retries{pool=tank}" in metrics.counters
