"""Tenant specs and open-loop arrival processes."""

import json
from collections import Counter

import pytest

from repro.errors import DerInval
from repro.sim.rng import RngStreams
from repro.tenants import (
    DEFAULT_MIX,
    BulkWork,
    KvBurstWork,
    MetaStormWork,
    PoissonArrivals,
    TenantSpec,
    TraceArrivals,
    make_tenants,
)
from repro.tenants.spec import KV_VALUE_BYTES


# ----------------------------------------------------------------------- spec
def test_tenant_id_must_be_label_safe():
    for bad in ("", "a,b", "a=b", "a{b", "a}b", "a b"):
        with pytest.raises(DerInval):
            TenantSpec(id=bad)
    TenantSpec(id="tenant-7.prod")  # dashes and dots are fine


def test_tenant_rate_must_be_positive():
    with pytest.raises(DerInval):
        TenantSpec(id="t0", rate=0.0)


def test_make_tenants_is_deterministic_and_mixed():
    fleet = make_tenants(8)
    assert [t.id for t in fleet] == [f"t{i}" for i in range(8)]
    assert fleet == make_tenants(8)  # pure function of the arguments
    kinds = Counter(t.workload.kind for t in fleet)
    # DEFAULT_MIX deals bulk,bulk,kv,meta round-robin
    assert kinds == {"bulk": 4, "kv": 2, "meta": 2}


def test_make_tenants_pads_ids_for_big_fleets():
    fleet = make_tenants(1000)
    assert fleet[0].id == "t000" and fleet[999].id == "t999"
    assert len({t.id for t in fleet}) == 1000


def test_make_tenants_rejects_bad_inputs():
    with pytest.raises(DerInval):
        make_tenants(0)
    with pytest.raises(DerInval):
        make_tenants(4, mix=())
    with pytest.raises(DerInval):
        make_tenants(4, mix=((BulkWork(), 0),))


def test_workload_qos_bytes():
    assert BulkWork(nbytes=100).qos_bytes == 100
    assert KvBurstWork(n_ops=4).qos_bytes == 4 * KV_VALUE_BYTES
    assert MetaStormWork(n_ops=2).qos_bytes > 0
    assert {w.kind for w, _ in DEFAULT_MIX} == {"bulk", "kv", "meta"}


# ------------------------------------------------------------------- poisson
def test_poisson_arrivals_are_seeded_and_sorted():
    fleet = make_tenants(3, rate=5.0)
    times_a = PoissonArrivals(RngStreams(seed=7)).times_for(fleet[0], 10.0)
    times_b = PoissonArrivals(RngStreams(seed=7)).times_for(fleet[0], 10.0)
    assert times_a == times_b
    assert times_a == sorted(times_a)
    assert all(0 <= t < 10.0 for t in times_a)
    # roughly rate * horizon arrivals (Poisson, generous bounds)
    assert 15 <= len(times_a) <= 120


def test_poisson_streams_are_independent_per_tenant():
    """Adding tenants to a fleet never perturbs an existing tenant's
    arrival times — streams are named by tenant id, not draw order."""
    t5 = TenantSpec(id="t5", rate=3.0)
    t6 = TenantSpec(id="t6", rate=3.0)

    def times(fleet, tenant):
        # fresh stream family, but draw the *other* fleet members first:
        # draw order must not matter, only the tenant's own stream.
        arr = PoissonArrivals(RngStreams(seed=42))
        for other in fleet:
            if other.id != tenant.id:
                arr.times_for(other, 8.0)
        return arr.times_for(tenant, 8.0)

    assert times([t5], t5) == times([t6, t5], t5)
    assert times([t6], t6) == times([t5, t6], t6)
    # distinct tenants draw distinct schedules
    assert times([t5], t5) != times([t6], t6)


def test_poisson_rate_scales_arrival_counts():
    arr = PoissonArrivals(RngStreams(seed=3))
    slow = TenantSpec(id="slow", rate=1.0)
    fast = TenantSpec(id="fast", rate=20.0)
    assert len(arr.times_for(fast, 50.0)) > 5 * len(arr.times_for(slow, 50.0))


# --------------------------------------------------------------------- trace
def test_trace_arrivals_filter_and_sort():
    trace = TraceArrivals([(3.0, "b"), (1.0, "a"), (2.0, "a"), (9.0, "a")])
    a = TenantSpec(id="a")
    assert trace.times_for(a, horizon=5.0) == [1.0, 2.0]
    assert trace.times_for(TenantSpec(id="zzz"), horizon=5.0) == []
    assert trace.entries[0] == (1.0, "a")


def test_trace_rejects_negative_times():
    with pytest.raises(DerInval):
        TraceArrivals([(-0.5, "a")])


@pytest.mark.parametrize("t", [float("nan"), float("inf")])
def test_trace_rejects_non_finite_times(t):
    with pytest.raises(DerInval, match="non-finite"):
        TraceArrivals([(t, "a"), (0.2, "b")])


def test_trace_from_file_both_shapes(tmp_path):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(
        [[0.5, "t0"], {"t": 1.5, "tenant": "t1"}, [1.0, "t0"]]
    ))
    trace = TraceArrivals.from_file(str(path))
    assert trace.times_for(TenantSpec(id="t0"), 10.0) == [0.5, 1.0]
    assert trace.times_for(TenantSpec(id="t1"), 10.0) == [1.5]


def test_trace_from_file_rejects_malformed(tmp_path):
    for doc in ('{"not": "a list"}', '[[1.0]]', '[{"t": 1.0}]', '[5]'):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        with pytest.raises(DerInval):
            TraceArrivals.from_file(str(path))
