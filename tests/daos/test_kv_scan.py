"""Ordered KV enumeration: deterministic listing, pagination, prefixes.

The FDB retriever leans on ``DaosKV.list``/``scan`` for predicate
expansion, so the contract is pinned here: sorted order, exact prefix
semantics (including the upper-bound carry for trailing 0xFF bytes),
cursor-based resumption, and key validation consistent with the metric
label grammar (same reserved characters).
"""

import pytest

from repro.cluster import small_cluster
from repro.daos import kv as kv_module
from repro.daos.kv import (
    RESERVED_KEY_CHARS,
    DaosKV,
    prefix_upper_bound,
    validate_key,
)
from repro.errors import DerInval
from repro.obs.metrics import format_metric_name


@pytest.fixture(scope="module")
def cluster():
    return small_cluster(server_nodes=2, client_nodes=1, targets_per_engine=2)


@pytest.fixture(scope="module")
def kv(cluster):
    client = cluster.new_client(0)

    def setup():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("kv-scan", oclass="S2")
        handle = yield from DaosKV.create(cont)
        for step in range(12):
            yield from handle.put(f"fc/t2m/{step:03d}", step)
        for step in range(3):
            yield from handle.put(f"fc/u10/{step:03d}", step)
        yield from handle.put("landmark", "done")
        return handle

    return cluster.run(setup())


def test_list_is_sorted_and_complete(cluster, kv):
    keys = cluster.run(kv.list())
    assert keys == sorted(keys)
    assert len(keys) == 16


def test_empty_prefix_equals_full_listing(cluster, kv):
    assert cluster.run(kv.list(prefix="")) == cluster.run(kv.list())


def test_prefix_filters_exactly(cluster, kv):
    t2m = cluster.run(kv.list(prefix="fc/t2m/"))
    assert t2m == [f"fc/t2m/{i:03d}" for i in range(12)]
    # a prefix that is itself a stored key matches only itself
    assert cluster.run(kv.list(prefix="landmark")) == ["landmark"]
    assert cluster.run(kv.list(prefix="zzz")) == []


def test_limit_truncates_in_order(cluster, kv, monkeypatch):
    everything = cluster.run(kv.list(prefix="fc/"))
    monkeypatch.setattr(kv_module, "PAGE", 5)
    assert cluster.run(kv.list(prefix="fc/")) == everything[:5]


def test_after_cursor_resumes_without_overlap(cluster, kv, monkeypatch):
    everything = cluster.run(kv.list(prefix="fc/"))
    monkeypatch.setattr(kv_module, "PAGE", 6)
    first = cluster.run(kv.list(prefix="fc/"))
    monkeypatch.undo()
    rest = cluster.run(kv.list(prefix="fc/", after=first[-1]))
    assert first + rest == everything


def test_scan_paginates_to_completion(cluster, kv, monkeypatch):
    # pages far smaller than the key count: scan must stitch pages
    by_prefix, every_key = (cluster.run(kv.list(prefix="fc/")),
                            cluster.run(kv.list()))
    monkeypatch.setattr(kv_module, "PAGE", 4)
    assert cluster.run(kv.scan(prefix="fc/")) == by_prefix
    monkeypatch.setattr(kv_module, "PAGE", 3)
    assert cluster.run(kv.scan()) == every_key


def test_reserved_chars_rejected_like_metric_labels(cluster, kv):
    """The KV key grammar reserves exactly the metric-label characters,
    so canonical field keys are always legal label values."""
    for ch in RESERVED_KEY_CHARS:
        with pytest.raises(DerInval):
            validate_key(f"bad{ch}key")
        with pytest.raises(ValueError):
            format_metric_name("m", {"label": f"bad{ch}key"})

    def go():
        try:
            yield from kv.put("bad,key", 1)
        except DerInval:
            return "rejected"
        return "accepted"

    assert cluster.run(go()) == "rejected"


@pytest.mark.parametrize("bad", ["", 123, None, b"bytes"])
def test_non_string_or_empty_keys_rejected(bad):
    with pytest.raises(DerInval):
        validate_key(bad)


def test_prefix_upper_bound_increments_last_byte():
    assert prefix_upper_bound(b"abc") == b"abd"
    assert prefix_upper_bound(b"a/") == b"a0"


def test_prefix_upper_bound_carries_past_trailing_ff():
    # UTF-8 never produces 0xFF, but the bound must stay correct for any
    # byte string the index could hold
    assert prefix_upper_bound(b"a\xff") == b"b"
    assert prefix_upper_bound(b"a\xff\xff") == b"b"
    assert prefix_upper_bound(b"\xff\xff") is None
    assert prefix_upper_bound(b"") is None
