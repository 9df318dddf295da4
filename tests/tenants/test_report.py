"""Report math: exact quantiles, Jain fairness, breach grouping."""

import pytest

from repro.obs import exact_quantile
from repro.tenants import (
    breaches_by_tenant,
    build_report,
    jain_fairness,
    render_report,
)


def test_exact_quantile_nearest_rank():
    vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert exact_quantile(vals, 0.50) == 5.0
    assert exact_quantile(vals, 0.99) == 10.0
    assert exact_quantile(vals, 0.0) == 1.0
    assert exact_quantile([], 0.99) == 0.0
    assert exact_quantile([7.0], 0.999) == 7.0


def test_exact_quantile_p999_needs_a_big_sample():
    vals = sorted(float(i) for i in range(1, 2001))
    assert exact_quantile(vals, 0.999) == 1998.0  # ceil(.999*2000) = 1998
    assert exact_quantile(vals, 0.999) < vals[-1]


def test_jain_fairness_bounds():
    assert jain_fairness([5.0, 5.0, 5.0, 5.0]) == pytest.approx(1.0)
    # one tenant hogs everything: J -> 1/n
    assert jain_fairness([12.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)
    assert jain_fairness([]) == 1.0
    assert jain_fairness([0.0, 0.0]) == 1.0
    skewed = jain_fairness([10.0, 1.0, 1.0, 1.0])
    assert 0.25 < skewed < 1.0


class _Breach:
    def __init__(self, metric, time=1.0):
        self.metric = metric
        self.time = time
        self.rule = f"{metric} p99 < 1 over 1 windows"

    def to_json(self):
        return {"metric": self.metric, "time": self.time, "rule": self.rule}


class _Store:
    def __init__(self, breaches):
        self.breaches = breaches


def test_breaches_group_by_tenant_label():
    store = _Store([
        _Breach("tenant.request.latency{tenant=t1}"),
        _Breach("tenant.request.latency{tenant=t1}", time=2.0),
        _Breach("tenant.request.latency{tenant=t2}"),
        _Breach("fabric.xfer.bytes"),  # fleet-level rule, no label
    ])
    grouped = breaches_by_tenant(store)
    assert sorted(grouped) == ["", "t1", "t2"]
    assert len(grouped["t1"]) == 2
    assert len(grouped["t2"]) == 1
    assert breaches_by_tenant(None) == {}


def _result(latencies_by_tenant, duration=10.0):
    tenants = {}
    for tid, lats in latencies_by_tenant.items():
        tenants[tid] = {
            "arrivals": len(lats), "admitted": len(lats), "rejected": 0,
            "completed": len(lats), "failed": 0,
            "bytes": 1000.0 * len(lats), "latencies": list(lats),
            "kind": "bulk", "qos_waited": 0.0,
        }
    return {
        "tenants": tenants,
        "admission": {"admitted": 0, "rejected": {}},
        "config": {"duration": duration, "qos_enabled": False,
                   "n_tenants": len(tenants)},
        "end_time": duration,
    }


def test_build_report_aggregates_and_per_tenant_tails():
    result = _result({"a": [0.1, 0.2, 0.3], "b": [0.4]})
    report = build_report(result)
    assert report["totals"]["completed"] == 4
    assert report["latency"]["p50"] == 0.2
    assert report["latency"]["p999"] == 0.4
    assert report["tenants"]["a"]["latency"]["p99"] == 0.3
    assert report["tenants"]["b"]["latency"]["p99"] == 0.4
    assert report["fairness_bytes"] == pytest.approx(
        jain_fairness([3000.0, 1000.0]))
    assert report["throughput"] == pytest.approx(400.0)
    assert report["rejection_rate"] == 0.0


def test_build_report_excludes_idle_tenants_from_fairness():
    result = _result({"a": [0.1], "idle": []})
    report = build_report(result)
    # idle offered no load -> fairness over active tenants only
    assert report["fairness_bytes"] == pytest.approx(1.0)


def test_render_report_is_printable():
    result = _result({"a": [0.1, 0.2], "b": [0.3]})
    store = _Store([_Breach("tenant.request.latency{tenant=a}")])
    text = render_report(build_report(result, store=store))
    assert "fairness" in text
    assert "SLO breaches: 1" in text
    assert "a" in text and "p99" in text
