"""Metrics registry: gauge and histogram semantics."""

import json
import math

import pytest

from repro.obs.metrics import (
    QUANTILES,
    Histogram,
    MetricsRegistry,
    exact_quantile,
    format_metric_name,
    latency_stats,
    write_metrics,
)
from repro.obs.validate import validate_metrics_snapshot


class _Clock:
    """Duck-typed stand-in for Simulator: registries only read ``now``."""

    def __init__(self, now: float = 0.0):
        self.now = now


# ------------------------------------------------------------------ gauges
def test_gauge_mean_uses_observed_window_not_absolute_time():
    clock = _Clock(now=10.0)
    reg = MetricsRegistry(clock)
    g = reg.gauge("engine.e0.t0.inflight")  # created at t=10
    g.set(10.0, 4.0)
    clock.now = 20.0
    # window is [10, 20): mean must be 4.0, not 4.0 * 10/20 = 2.0
    assert g.mean(clock.now) == pytest.approx(4.0)
    snap = reg.snapshot()
    assert snap["gauges"]["engine.e0.t0.inflight"]["mean"] == pytest.approx(4.0)


def test_gauge_time_weighted_mean_and_extrema():
    reg = MetricsRegistry(_Clock())
    g = reg.gauge("fabric.link.l0.utilization")
    g.set(0.0, 2.0)
    g.set(1.0, 4.0)
    g.set(2.0, 0.0)
    # 2.0 over [0,1) + 4.0 over [1,2) = 6.0 over a 2 s window
    assert g.mean(2.0) == pytest.approx(3.0)
    assert g.vmin == 0.0 and g.vmax == 4.0


# -------------------------------------------------------------- histograms
def test_histogram_percentiles_bracket_known_distribution():
    h = Histogram("lat")
    values = [0.001 * (i + 1) for i in range(100)]  # 1 ms .. 100 ms
    for v in values:
        h.observe(v)
    assert h.count == 100
    assert h.mean == pytest.approx(sum(values) / 100)
    # log2 buckets are coarse: accept a factor-of-two bracket around the
    # exact quantile, plus the exact-extrema clamp.
    assert 0.025 <= h.p50 <= 0.1
    assert 0.05 <= h.p95 <= 0.1
    assert h.quantile(0.0) == h.vmin == pytest.approx(0.001)
    assert h.quantile(1.0) == h.vmax == pytest.approx(0.1)
    assert h.p50 <= h.p95 <= h.p99


def test_histogram_empty_and_tiny_values():
    h = Histogram("lat")
    assert h.quantile(0.5) == 0.0 and h.mean == 0.0
    h.observe(0.0)  # below the smallest bucket bound
    assert h.p50 == 0.0
    h.observe(5.0)
    assert h.vmax == 5.0
    assert h.p99 <= 5.0


def test_histogram_single_value_quantiles_are_exact():
    h = Histogram("lat")
    h.observe(0.25)
    # interpolation is clamped by the observed extrema
    for q in (0.01, 0.5, 0.95, 0.99):
        assert h.quantile(q) == pytest.approx(0.25)


# ------------------------------------------------------------------ export
def test_snapshot_is_json_serialisable_and_complete():
    clock = _Clock()
    reg = MetricsRegistry(clock)
    reg.incr("fabric.msgs.delivered", 3)
    reg.set_gauge("engine.e0.t0.inflight", 2.0)
    reg.observe("ior.write.latency", 0.004)
    clock.now = 1.0
    snap = json.loads(json.dumps(reg.snapshot()))
    assert snap["sim_time"] == 1.0
    assert snap["counters"]["fabric.msgs.delivered"] == 3
    gauge = snap["gauges"]["engine.e0.t0.inflight"]
    assert set(gauge) == {"value", "mean", "min", "max"}
    assert gauge["value"] == 2.0
    hist = snap["histograms"]["ior.write.latency"]
    assert hist["count"] == 1 and hist["p50"] == pytest.approx(0.004)
    assert "reservoirs" not in snap
    # the schema check takes it with or without an older dump's section
    assert validate_metrics_snapshot(snap) == []
    assert validate_metrics_snapshot({**snap, "reservoirs": {}}) == []
    assert validate_metrics_snapshot({**snap, "reservoirs": {"a=b": {}}})
    no_mean = {"engine.e0.t0.inflight": {**gauge, "mean": None}}
    assert validate_metrics_snapshot({**snap, "gauges": no_mean}) == [
        "gauges['engine.e0.t0.inflight']: missing/bad 'mean'"]
    unsorted = {**snap, "counters": {"c{b=1,a=2}": 1}}
    assert validate_metrics_snapshot(unsorted) == [
        "counters['c{b=1,a=2}']: labels out of order, canonical 'c{a=2,b=1}'"]


def test_prometheus_exposition_format():
    reg = MetricsRegistry(_Clock())
    reg.incr("fabric.msgs.delivered")
    reg.set_gauge("engine.e0.t0.inflight", 3.0)
    reg.observe("ior.write.latency", 0.5)
    text = reg.to_prometheus()
    assert "# TYPE fabric_msgs_delivered counter" in text
    assert "fabric_msgs_delivered 1" in text
    assert "# TYPE engine_e0_t0_inflight gauge" in text
    assert "# TYPE ior_write_latency histogram" in text
    assert 'ior_write_latency_bucket{le="+Inf"} 1' in text
    assert "ior_write_latency_sum 0.5" in text
    assert "ior_write_latency_count 1" in text
    assert text.endswith("\n")


def test_prometheus_histogram_buckets_are_cumulative():
    reg = MetricsRegistry(_Clock())
    for v in (0.001, 0.002, 0.004, 0.1):
        reg.observe("lat", v)
    text = reg.to_prometheus()
    lines = [l for l in text.splitlines() if l.startswith("lat_bucket")]
    counts = [int(l.rsplit(" ", 1)[1]) for l in lines]
    assert counts == sorted(counts)  # cumulative, non-decreasing
    assert counts[-1] == 4  # +Inf bucket equals total count
    assert lines[-1].startswith('lat_bucket{le="+Inf"}')


def test_prometheus_labels_render_in_prom_syntax():
    reg = MetricsRegistry(_Clock())
    reg.incr(format_metric_name("ior.ops", {"rank": 3}))
    reg.incr(format_metric_name("ior.ops", {"rank": 7}))
    reg.observe(format_metric_name("ior.write.latency", {"rank": 3}), 0.01)
    text = reg.to_prometheus()
    assert 'ior_ops{rank="3"} 1' in text
    assert 'ior_ops{rank="7"} 1' in text
    # one TYPE line per base metric, shared by the labeled series
    assert text.count("# TYPE ior_ops counter") == 1
    assert 'ior_write_latency_sum{rank="3"} 0.01' in text
    assert 'ior_write_latency_bucket{rank="3",le="+Inf"} 1' in text


def test_write_metrics_picks_format_by_extension(tmp_path):
    reg = MetricsRegistry(_Clock())
    reg.incr("c")
    prom = tmp_path / "m.prom"
    blob = tmp_path / "m.json"
    write_metrics(reg, str(prom))
    write_metrics(reg, str(blob))
    assert "# TYPE c counter" in prom.read_text()
    assert json.loads(blob.read_text())["counters"]["c"] == 1.0



# ------------------------------------------------------ exact-latency summary
def test_latency_stats_is_exact_nearest_rank_over_every_sample():
    samples = [0.004, 0.001, 0.003, 0.002, 0.010]  # unsorted on purpose
    stats = latency_stats(samples)
    assert stats["count"] == 5
    assert stats["max"] == 0.010
    assert stats["mean"] == sum(sorted(samples)) / 5
    assert [key for key, _q in QUANTILES] == ["p50", "p95", "p99", "p999"]
    for key, q in QUANTILES:
        assert stats[key] == exact_quantile(sorted(samples), q)
    assert stats["p50"] == 0.003 and stats["p999"] == 0.010
    assert latency_stats([]) == {
        "count": 0, "mean": 0.0, "max": 0.0,
        "p50": 0.0, "p95": 0.0, "p99": 0.0, "p999": 0.0,
    }


def test_tenants_and_fdb_reports_agree_on_the_same_samples():
    from repro.fdb import build_report as fdb_report
    from repro.tenants import build_report as tenants_report

    samples = [1e-3 * (i % 97 + 1) for i in range(1500)]
    serving = tenants_report({
        "tenants": {"t0": {
            "kind": "bulk", "arrivals": 1500, "admitted": 1500,
            "rejected": 0, "completed": 1500, "failed": 0, "bytes": 1.0,
            "latencies": list(samples),
        }},
        "config": {"duration": 1.0}, "end_time": 1.0,
    })
    phase = {"wall": 1.0, "fields": 1500, "bytes": 1.0,
             "latencies": list(samples)}
    fields = fdb_report({
        "config": {}, "n_fields": 1500, "archive": phase, "retrieve": phase,
        "landmarks": [], "end_time": 1.0,
    })
    expected = latency_stats(samples)
    assert serving["latency"] == expected
    assert serving["tenants"]["t0"]["latency"] == expected
    assert fields["archive"]["latency"] == expected
    assert fields["retrieve"]["latency"] == expected
