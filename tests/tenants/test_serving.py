"""End-to-end serving runs: dispatch, admission, QoS, determinism.

The 1000-tenant case is the subsystem's acceptance bar: a seeded
open-loop run over the full mixed fleet must complete, produce exact
per-tenant p99/p999 tails and a fairness index, and be bitwise
deterministic — identical report JSON *and* identical timeline JSON
across two fresh processes-worth of state.
"""

import gc
import json

import pytest

from repro.cluster import small_cluster
from repro.errors import SimulationError
from repro.sim.core import Task
from repro.tenants import (
    BulkWork,
    Dispatcher,
    KvBurstWork,
    MetaStormWork,
    PoissonArrivals,
    ServingConfig,
    TenantSpec,
    TraceArrivals,
    build_report,
    make_tenants,
)
from repro.tenants import dispatcher as dispatcher_module
from repro.units import KiB, MiB

#: Small, fast workload mix used throughout these tests.
FAST_MIX = (
    (BulkWork(nbytes=64 * KiB, xfer=32 * KiB), 2),
    (KvBurstWork(n_ops=4), 1),
    (MetaStormWork(n_ops=2), 1),
)


def _serve(tenants, config, observe=True, slo_rules=None, cluster=None):
    cluster = cluster or small_cluster()
    if observe:
        cluster.observe(tracing=False,
                        timeline_interval=1.0, slo_rules=slo_rules)
    dispatcher = Dispatcher(
        cluster, tenants, PoissonArrivals(cluster.rng), config
    )
    result = cluster.run(dispatcher.serve())
    return cluster, dispatcher, result


# ------------------------------------------------------------------ plumbing
def test_serving_accounting_is_consistent():
    fleet = make_tenants(8, rate=2.0, mix=FAST_MIX)
    cluster, dispatcher, result = _serve(
        fleet, ServingConfig(duration=5.0)
    )
    totals = {k: sum(t[k] for t in result["tenants"].values())
              for k in ("arrivals", "admitted", "rejected",
                        "completed", "failed")}
    assert totals["arrivals"] > 0
    assert totals["arrivals"] == totals["admitted"] + totals["rejected"]
    # the run drains: every admitted job completed or failed
    assert totals["admitted"] == totals["completed"] + totals["failed"]
    assert dispatcher.admission.inflight == 0
    assert result["end_time"] >= 5.0


def test_labeled_metrics_are_emitted():
    fleet = make_tenants(4, rate=2.0, mix=FAST_MIX)
    cluster, _, result = _serve(fleet, ServingConfig(duration=3.0))
    registry = cluster.sim.metrics
    names = set(registry.counters)
    assert "tenant.arrivals" in names
    assert "tenant.completions" in names
    for spec in fleet:
        if result["tenants"][spec.id]["arrivals"]:
            assert f"tenant.arrivals{{tenant={spec.id}}}" in names
    # per-tenant latency histograms feed the timeline/SLO pipeline
    assert "tenant.request.latency" in registry.histograms
    total = registry.counters["tenant.arrivals"].value
    assert total == sum(t["arrivals"] for t in result["tenants"].values())
    # fleet-wide inflight gauge came back to zero
    assert registry.gauges["tenant.inflight"].value == 0


def test_serving_works_without_observability():
    fleet = make_tenants(4, rate=2.0, mix=FAST_MIX)
    _, _, result = _serve(fleet, ServingConfig(duration=3.0), observe=False)
    report = build_report(result)
    assert report["totals"]["completed"] > 0
    assert report["latency"]["p99"] > 0


def test_serve_keeps_no_finished_job():
    # the drain waits on the admission count, not on a list of every job
    # ever admitted, so memory does not grow with the jobs served
    fleet = make_tenants(4, rate=4.0, mix=FAST_MIX)
    cluster, dispatcher, _ = _serve(fleet, ServingConfig(duration=3.0),
                                    observe=False)
    assert dispatcher.admission.admitted > 0
    gc.collect()
    jobs = [obj for obj in gc.get_objects() if isinstance(obj, Task)
            and obj.name.startswith("tenants.job:")]
    assert jobs == [] and cluster.sim.now >= 3.0


def test_a_job_that_raises_a_non_der_error_fails_the_run(monkeypatch):
    def broken(ctx, sim, depth):
        raise RuntimeError("bug in a workload")
        yield  # pragma: no cover - generator marker

    monkeypatch.setattr(dispatcher_module, "execute", broken)
    fleet = make_tenants(2, rate=2.0, mix=FAST_MIX)
    with pytest.raises(SimulationError) as info:
        _serve(fleet, ServingConfig(duration=2.0), observe=False)
    assert isinstance(info.value.__cause__, RuntimeError)


def test_tight_admission_window_sheds_load():
    # a tight QoS budget stretches each job to ~1 s, so 4 arrivals/s per
    # tenant pile onto a 1-deep per-tenant window and must be shed
    fleet = make_tenants(6, rate=4.0, mix=FAST_MIX)
    cluster, dispatcher, result = _serve(
        fleet,
        ServingConfig(duration=4.0, max_inflight=4,
                      max_inflight_per_tenant=1,
                      qos_enabled=True, default_qos_bw=64 * KiB),
    )
    report = build_report(result)
    assert report["totals"]["rejected"] > 0
    assert report["rejection_rate"] > 0
    by_reason = dispatcher.admission.rejected
    assert sum(by_reason.values()) == report["totals"]["rejected"]
    # rejected arrivals show up in the labeled rejection counters
    registry = cluster.sim.metrics
    assert registry.counters["tenant.rejections"].value == \
        report["totals"]["rejected"]
    # load shedding is not a failure: completed jobs all succeeded
    assert report["totals"]["failed"] == 0


def test_trace_arrivals_dispatch_exactly():
    cluster = small_cluster()
    fleet = [TenantSpec(id="a", workload=FAST_MIX[0][0]),
             TenantSpec(id="b", workload=FAST_MIX[0][0])]
    trace = TraceArrivals([(0.5, "a"), (1.0, "b"), (1.5, "a"),
                           (99.0, "a")])  # beyond the horizon: dropped
    dispatcher = Dispatcher(
        cluster, fleet, trace, ServingConfig(duration=2.0)
    )
    result = cluster.run(dispatcher.serve())
    assert result["tenants"]["a"]["arrivals"] == 2
    assert result["tenants"]["b"]["arrivals"] == 1
    assert result["tenants"]["a"]["completed"] == 2


# ------------------------------------------------------------------------ QoS
def test_qos_budget_throttles_a_tenant():
    work = BulkWork(nbytes=256 * KiB, xfer=64 * KiB)
    capped = TenantSpec(id="capped", workload=work, rate=4.0,
                        qos_bw=256 * KiB)  # ~1 job/s of budget
    free = TenantSpec(id="free", workload=work, rate=4.0)
    _, dispatcher, result = _serve(
        [capped, free],
        ServingConfig(duration=6.0, qos_enabled=True,
                      default_qos_bw=64 * MiB),
        observe=False,
    )
    report = build_report(result)
    t_capped, t_free = report["tenants"]["capped"], report["tenants"]["free"]
    # the capped tenant spent real time waiting on tokens...
    assert t_capped["qos_waited"] > 0.0
    assert t_free["qos_waited"] == 0.0
    # ...which shows up as higher request latency
    assert t_capped["latency"]["p99"] > 4 * t_free["latency"]["p99"]


def test_qos_off_and_on_share_the_code_path():
    fleet = make_tenants(4, rate=2.0, mix=FAST_MIX)
    _, _, r_off = _serve(fleet, ServingConfig(duration=3.0),
                         observe=False)
    _, _, r_on = _serve(fleet, ServingConfig(duration=3.0,
                                             qos_enabled=True,
                                             default_qos_bw=64 * MiB),
                        observe=False)
    # same seed, same arrivals either way (open loop is open loop)
    for tid in r_off["tenants"]:
        assert r_off["tenants"][tid]["arrivals"] == \
            r_on["tenants"][tid]["arrivals"]


# -------------------------------------------------------------- determinism
def _thousand_tenant_run():
    fleet = make_tenants(1000, rate=0.2, mix=FAST_MIX)
    cluster, dispatcher, result = _serve(
        fleet,
        ServingConfig(duration=5.0, max_inflight=128,
                      max_inflight_per_tenant=2),
    )
    report = build_report(result, store=cluster.sim.timeline.store)
    timeline = cluster.sim.timeline.store.to_json()
    return report, timeline


def test_thousand_tenants_deterministic_with_tails_and_fairness():
    report1, timeline1 = _thousand_tenant_run()
    report2, timeline2 = _thousand_tenant_run()
    # bitwise-identical outputs across two fresh runs
    assert json.dumps(report1, sort_keys=True) == \
        json.dumps(report2, sort_keys=True)
    assert json.dumps(timeline1, sort_keys=True) == \
        json.dumps(timeline2, sort_keys=True)
    # the full fleet served: ~rate*duration*n arrivals, nothing stuck
    totals = report1["totals"]
    assert totals["arrivals"] > 600
    assert totals["admitted"] == totals["completed"] + totals["failed"]
    assert totals["failed"] == 0
    # per-tenant exact tails are reported for every active tenant
    active = [t for t in report1["tenants"].values() if t["completed"]]
    assert len(active) > 500
    for t in active:
        assert t["latency"]["p99"] > 0
        assert t["latency"]["p999"] >= t["latency"]["p99"]
    assert report1["latency"]["p999"] >= report1["latency"]["p99"] > 0
    # mixed workloads are deliberately unequal in bytes; the index is
    # still a meaningful scalar in (0, 1]
    assert 0.0 < report1["fairness_bytes"] <= 1.0
