"""The sim-time metrics scraper: labeled series, windowed percentiles,
SLO/stall rules, park/revive, and the timeline JSON schema."""

import json

import pytest

from repro.errors import DeadlockError
from repro.obs import install
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    bucket_quantile,
    format_metric_name,
    parse_metric_name,
)
from repro.obs.slo import (
    DEFAULT_STALL_WINDOWS,
    SloRule,
    StallRule,
    default_rules,
    parse_slo,
)
from repro.obs.timeline import Series, TimelineScraper, write_timeline
from repro.obs.validate import validate_timeline
from repro.sim.core import Simulator
from repro.sim.sync import Condition


def value_at(series, t):
    """Step-wise lookup: the last recorded value at or before ``t``."""
    best = None
    for pt, pv in series.points:
        if pt > t:
            break
        best = pv
    return best


# ------------------------------------------------------------------- labels
def test_label_names_round_trip():
    full = format_metric_name(
        "rebuild.bytes_moved", {"target": 5, "pool": "tank"}
    )
    assert full == "rebuild.bytes_moved{pool=tank,target=5}"  # keys sorted
    base, labels = parse_metric_name(full)
    assert base == "rebuild.bytes_moved"
    assert labels == {"pool": "tank", "target": "5"}


def test_label_reserved_characters_rejected():
    for bad in ({"a": "x,y"}, {"a": "x=y"}, {"a": "{"}, {"k=": "v"},
                {"a": "x}y"}, {"": "v"}):
        with pytest.raises(ValueError):
            format_metric_name("m", bad)
    with pytest.raises(ValueError):
        parse_metric_name("m{unclosed")
    with pytest.raises(ValueError):
        parse_metric_name("m{novalue}")


def test_format_rejects_reserved_characters_in_base():
    for bad_base in ("a{b", "a}b", "a=b", "a,b", "a{k=v}"):
        with pytest.raises(ValueError):
            format_metric_name(bad_base, {"k": "v"})
        with pytest.raises(ValueError):
            format_metric_name(bad_base)


def test_parse_rejects_unroundtrippable_names():
    # Every one of these used to parse "successfully" into labels that
    # format_metric_name would then refuse — a silent round-trip break.
    for malformed in (
        "a{k=v}}",      # extra closing brace swallowed into the value
        "a{k=v=w}",     # '=' inside a value
        "a{k={x}",      # '{' inside a value
        "a}b",          # stray brace, no label body
        "a=b",          # stray '=' outside any label body
        "a,b",          # stray ',' outside any label body
        "a}b{k=v}",     # brace inside the base
        "a{k}=v}",      # brace inside the key
        "a{}",          # empty label body: formats back as "a"
        "a{k=v,k=w}",   # repeated key: one value is lost
        "a{k=v,}",      # trailing comma
    ):
        with pytest.raises(ValueError):
            parse_metric_name(malformed)


def test_parse_format_round_trip_is_exact():
    cases = [
        ("plain.name", {}),
        ("tenant.request.latency", {"tenant": "t007"}),
        ("rebuild.bytes_moved", {"pool": "tank", "target": "5"}),
        ("m", {"k": ""}),  # empty value survives the trip
    ]
    for base, labels in cases:
        full = format_metric_name(base, labels)
        got_base, got_labels = parse_metric_name(full)
        assert (got_base, got_labels) == (base, labels)
        assert format_metric_name(got_base, got_labels) == full


def test_registry_keys_on_canonical_labeled_name():
    class _Clock:
        now = 0.0

    reg = MetricsRegistry(_Clock())
    reg.incr(format_metric_name("ior.ops", {"rank": 1}))
    reg.incr(format_metric_name("ior.ops", {"rank": 1}))
    reg.incr("ior.ops")  # unlabeled aggregate is a distinct series
    assert reg.counters["ior.ops{rank=1}"].value == 2
    assert reg.counters["ior.ops"].value == 1


# ----------------------------------------------- windowed percentile math
def test_window_quantiles_match_brute_force_recompute():
    """The per-window quantile (bucket deltas) must equal the quantile of
    a histogram built from only that window's raw values."""
    full = Histogram("lat")
    warmup = [0.001 * (i + 1) for i in range(50)]
    for v in warmup:
        full.observe(v)
    before = (full.count, list(full.buckets))

    window_values = [0.0004 * (i + 1) for i in range(37)]
    for v in window_values:
        full.observe(v)

    dcount = full.count - before[0]
    dbuckets = [b - lb for b, lb in zip(full.buckets, before[1])]

    brute = Histogram("window-only")
    for v in window_values:
        brute.observe(v)

    assert dcount == brute.count
    assert dbuckets == brute.buckets
    for q in (0.5, 0.95, 0.99, 0.999):
        assert bucket_quantile(dbuckets, dcount, q) == bucket_quantile(
            brute.buckets, brute.count, q
        )


def test_bucket_quantile_edge_cases():
    assert bucket_quantile([0] * 64, 0, 0.5) == 0.0
    h = Histogram("one")
    h.observe(0.25)
    est = bucket_quantile(h.buckets, 1, 0.5)
    # unclamped interpolation lands inside the matched log2 bucket
    assert 0.125 < est <= 0.5


# ------------------------------------------------------------- scraping
def _observed_sim(interval=0.1, rules=()):
    sim = Simulator()
    install(sim, tracing=False, timeline_interval=interval,
            slo_rules=list(rules))
    return sim


def test_scraper_samples_counter_rates_and_gauge_means():
    sim = _observed_sim(interval=0.1)
    reg = sim.metrics

    def work():
        g = reg.gauge("client.io.inflight")
        for _ in range(10):
            reg.incr("fabric.xfer.bytes", 1000.0)
            g.add(sim.now, 1)
            yield 0.05
            g.add(sim.now, -1)
            yield 0.05

    sim.run_until_complete(sim.spawn(work(), "work"))
    store = sim.timeline.store
    assert store.n_windows >= 9
    rate = store.series["fabric.xfer.bytes:rate"]
    # 1000 bytes every 0.1 s => a steady 10 kB/s once warm
    assert value_at(rate, 0.5) == pytest.approx(10_000.0)
    mean = store.series["client.io.inflight:mean"]
    # inflight alternates 1/0 every 50 ms => window mean 0.5
    assert value_at(mean, 0.5) == pytest.approx(0.5)


def test_scraper_windows_align_to_interval_grid():
    sim = _observed_sim(interval=0.1)

    def work():
        for _ in range(5):
            sim.metrics.incr("c")
            yield 0.1

    sim.run_until_complete(sim.spawn(work(), "work"))
    points = sim.timeline.store.series["c:rate"].points
    for t, _v in points:
        k = t / 0.1
        assert abs(k - round(k)) < 1e-9, t


def test_window_quantile_series_match_per_window_observations():
    sim = _observed_sim(interval=0.1)
    reg = sim.metrics
    per_window = [0.001, 0.004, 0.016]  # one distinct latency per window

    def work():
        for v in per_window:
            yield 0.02  # land strictly inside the window
            reg.observe("ior.write.latency", v)
            yield 0.08
        yield 0.15  # keep the heap alive past the last window's tick

    sim.run_until_complete(sim.spawn(work(), "work"))
    scraper = sim.timeline
    store = scraper.store
    p99 = store.series["ior.write.latency:p99"]
    store.series["ior.write.latency:p99"].finalize()
    # each window held exactly one observation: its p99 is that value's
    # bucket interpolation, computable by brute force per window
    for i, v in enumerate(per_window):
        t = 0.1 * (i + 1)
        brute = Histogram("w")
        brute.observe(v)
        expected = bucket_quantile(brute.buckets, 1, 0.99)
        assert value_at(p99, t) == pytest.approx(expected)
    # the count series records every window, including empty ones
    count = store.series["ior.write.latency:count"]
    assert value_at(count, 0.1 * len(per_window)) == 1.0


# ------------------------------------------------------------ park/revive
def test_deadlock_error_survives_an_installed_scraper():
    """A recurring scraper tick must not keep the heap alive forever and
    mask DeadlockError for a task that can never resume."""
    sim = _observed_sim(interval=0.001)

    def stuck():
        yield Condition(sim)  # never notified

    with pytest.raises(DeadlockError):
        sim.run_until_complete(sim.spawn(stuck(), "stuck"))


def test_scraper_parks_and_revives_across_idle_gaps():
    sim = _observed_sim(interval=0.1)

    def burst(n):
        for _ in range(n):
            sim.metrics.incr("c")
            yield 0.1

    sim.run_until_complete(sim.spawn(burst(3), "first"))
    sim.run()  # drain the one already-scheduled tick
    assert sim.timeline._parked  # heap empty => parked
    windows_before = sim.timeline.store.n_windows

    sim.run(until=10.0)  # idle time passes with nothing scheduled
    assert sim.timeline.store.n_windows == windows_before  # no idle ticks

    sim.run_until_complete(sim.spawn(burst(2), "second"))
    store = sim.timeline.store
    assert store.n_windows > windows_before
    # revived ticks stay on the origin-aligned grid
    for t, _v in store.series["c:rate"].points:
        k = t / 0.1
        assert abs(k - round(k)) < 1e-9, t


def test_rates_use_actual_elapsed_across_park_gaps():
    sim = _observed_sim(interval=0.1)

    def burst():
        sim.metrics.incr("c", 100.0)
        yield 0.1

    sim.run_until_complete(sim.spawn(burst(), "first"))
    sim.run(until=5.0)

    def second():
        sim.metrics.incr("c", 100.0)
        yield 0.25  # outlive the first revived tick despite float skew

    sim.run_until_complete(sim.spawn(second(), "second"))
    rate = sim.timeline.store.series["c:rate"]
    rate.finalize()
    # the first post-gap window spans the park gap: its rate divides by
    # the ~5 s actually elapsed, not the nominal 0.1 s interval
    gap_rates = [v for t, v in rate.points if 4.9 < t <= 5.2]
    assert gap_rates and all(v < 1000.0 / 4.0 for v in gap_rates)


def test_run_ending_between_ticks_lands_its_last_ops_in_a_window(
        monkeypatch):
    """An IOR run returns with a tick still queued: reading the store
    closes that partial window, so every histogram's per-window counts
    sum to its count, without a heap push or a second sample."""
    from repro.cluster import build_system
    from repro.ior import IorParams, run_ior

    window_counts = {}
    record = Series.record

    def spy(series, t, v):  # every sample, before step compression
        if series.name.endswith(":count"):
            window_counts.setdefault(series.name, []).append(v)
        record(series, t, v)

    monkeypatch.setattr(Series, "record", spy)
    cluster = build_system(False, 2, 1, 0xDA05)
    cluster.observe(timeline_interval=0.0005)
    params = IorParams(api="DFS", file_per_proc=True, block_size="2m",
                       transfer_size="1m")
    run_ior(cluster, params, ppn=2)
    sim = cluster.sim
    pushes = sim._seq
    store = sim.timeline.store
    windows = store.n_windows
    assert sim.timeline.store.n_windows == windows  # one final sample
    assert sim._seq == pushes
    assert sim._heap  # the run did end between ticks
    histograms = sim.metrics.histograms
    assert "ior.read.latency" in histograms
    for name, hist in histograms.items():
        assert sum(window_counts[f"{name}:count"]) == hist.count, name


# --------------------------------------------------------------- SLO rules
def test_parse_threshold_rule():
    rule = parse_slo("ior.write.latency p99 < 2e-3 over 3 windows")
    assert isinstance(rule, SloRule)
    assert (rule.metric, rule.stat, rule.op) == (
        "ior.write.latency", "p99", "<"
    )
    assert rule.threshold == 2e-3 and rule.windows == 3
    assert rule.violated(5e-3) and not rule.violated(1e-3)
    assert not rule.violated(None)  # undefined stat never violates


def test_parse_stall_rule_with_and_without_windows():
    short = parse_slo("stall fabric.xfer.bytes while client.io.inflight")
    assert isinstance(short, StallRule)
    assert short.windows == DEFAULT_STALL_WINDOWS
    full = parse_slo(
        "stall fabric.xfer.bytes while client.io.inflight over 4 windows"
    )
    assert full.windows == 4
    assert full.violated(0.0, 2.0)
    assert not full.violated(1.0, 2.0)  # progress happened
    assert not full.violated(0.0, 0.0)  # nothing in flight
    assert not full.violated(None, 2.0)


@pytest.mark.parametrize("bad", [
    "",
    "only three tokens",
    "m p99 < over 3 windows",
    "m p17 < 1.0 over 3 windows",
    "m p99 != 1.0 over 3 windows",
    "m p99 < notanumber over 3 windows",
    "m p99 < 1.0 over zero windows",
    "m p99 < 1.0 over 0 windows",
    "m p99 < 1.0 during 3 windows",
    "stall onlyprogress",
    "stall a whoops b",
    "stall a while b over x windows",
])
def test_bad_rules_raise_value_error(bad):
    with pytest.raises(ValueError):
        parse_slo(bad)


def test_rule_metric_names_are_canonical():
    rule = parse_slo("m{target=0,rank=0} value < 0 over 1 windows")
    assert rule.metric == "m{rank=0,target=0}"
    assert rule.text == "m{target=0,rank=0} value < 0 over 1 windows"
    stall = parse_slo("stall c{b=1,a=2} while g{z=0,y=1}")
    assert (stall.progress, stall.guard) == ("c{a=2,b=1}", "g{y=1,z=0}")


@pytest.mark.parametrize("bad", [
    "m{rank=0 value < 0 over 1 windows",
    "m{rank=0,} value < 0 over 1 windows",
    "m{} value < 0 over 1 windows",
    "m{k=1,k=2} value < 0 over 1 windows",
    "stall c{ while g",
    "stall c while g{k=1,k=2} over 2 windows",
])
def test_rules_naming_malformed_metrics_raise_value_error(bad):
    with pytest.raises(ValueError, match="bad SLO rule"):
        parse_slo(bad)


def test_default_rules_is_the_stall_watchdog():
    (rule,) = default_rules()
    assert isinstance(rule, StallRule)
    assert rule.progress == "fabric.xfer.bytes"
    assert rule.guard == "client.io.inflight"


def test_threshold_breach_streak_and_rearm():
    """N consecutive violating windows breach once; a clean window
    re-arms the rule for a second breach."""
    rule = "g value > 0 over 2 windows"
    sim = _observed_sim(interval=0.1, rules=[rule])
    reg = sim.metrics

    def work():
        g = reg.gauge("g")
        g.set(sim.now, 0.0)     # violating (0 fails "> 0")
        yield 0.45              # windows 1-4 violate => breach at window 2
        g.set(sim.now, 1.0)     # clean => streak reset, rule re-armed
        yield 0.2
        g.set(sim.now, 0.0)     # violate again
        yield 0.25              # two more violating windows => 2nd breach

    sim.run_until_complete(sim.spawn(work(), "work"))
    breaches = sim.timeline.store.breaches
    assert len(breaches) == 2
    assert all(b.kind == "threshold" and b.rule == rule for b in breaches)
    assert breaches[0].time == pytest.approx(0.2)
    assert breaches[1].time > 0.65
    assert reg.counters["obs.slo.breaches"].value == 2


def test_labeled_series_rule_breaches_only_the_violating_tenant():
    """A p99 rule over one labeled series (``tenant.request.latency
    {tenant=t1}``) fires for exactly that tenant — a sibling label
    violating harder never trips it — and re-arms after clean windows."""
    rule = "tenant.request.latency{tenant=t1} p99 < 0.01 over 2 windows"
    sim = _observed_sim(interval=0.1, rules=[rule])
    reg = sim.metrics

    def work():
        h1 = reg.histogram(
            format_metric_name("tenant.request.latency", {"tenant": "t1"}))
        h2 = reg.histogram(
            format_metric_name("tenant.request.latency", {"tenant": "t2"}))
        # phase 1: t1 violates (50 ms >> 10 ms bound), t2 is clean
        for _ in range(4):
            h1.observe(0.05)
            h2.observe(0.001)
            yield 0.1
        # phase 2: t1 recovers; t2 now violates wildly — not its rule
        for _ in range(3):
            h1.observe(0.001)
            h2.observe(9.0)
            yield 0.1
        # phase 3: t1 violates again => the re-armed rule fires once more
        for _ in range(3):
            h1.observe(0.05)
            h2.observe(9.0)
            yield 0.1

    sim.run_until_complete(sim.spawn(work(), "work"))
    breaches = sim.timeline.store.breaches
    assert len(breaches) == 2
    assert all(
        b.metric == "tenant.request.latency{tenant=t1}" for b in breaches
    )
    # first breach after two violating windows, second only in phase 3
    assert breaches[0].time == pytest.approx(0.2)
    assert breaches[1].time > 0.7
    # the scraper tracked both labeled series independently
    store = sim.timeline.store
    assert "tenant.request.latency{tenant=t2}:p99" in store.series
    t2_p99 = store.series["tenant.request.latency{tenant=t2}:p99"]
    assert value_at(t2_p99, 0.95) > 1.0  # t2 really was violating


def test_breach_lands_in_trace_and_metrics_and_store():
    sim = Simulator()
    install(sim, tracing=True, timeline_interval=0.1,
            slo_rules=["c rate > 1e12 over 1 windows"])

    def work():
        sim.metrics.incr("c")  # rate is defined but tiny => violates
        yield 0.25

    sim.run_until_complete(sim.spawn(work(), "work"))
    store = sim.timeline.store
    assert store.breaches, "no breach recorded"
    assert sim.metrics.counters["obs.slo.breaches"].value == len(
        store.breaches
    )
    instants = [s for s in sim.tracer.spans if s.name == "slo.breach"]
    assert len(instants) == len(store.breaches)
    assert instants[0].attrs["rule"] == "c rate > 1e12 over 1 windows"


# ------------------------------------------------------------ JSON schema
def test_store_json_passes_validator_and_round_trips(tmp_path):
    sim = Simulator()
    install(sim, tracing=False, timeline_interval=0.1,
            slo_rules=["lat p99 < 1e-9 over 1 windows"])
    reg = sim.metrics

    def work():
        g = reg.gauge("depth")
        for i in range(4):
            reg.incr("bytes", 100.0)
            reg.observe("lat", 0.002 * (i + 1))
            g.set(sim.now, float(i))
            yield 0.1

    sim.run_until_complete(sim.spawn(work(), "work"))
    path = tmp_path / "timeline.json"
    write_timeline(sim.timeline.store, str(path))
    doc = json.loads(path.read_text())
    assert validate_timeline(doc) == []
    # a series name with its labels out of order names no series
    unsorted = {**doc, "series": {"m{b=1,a=2}:rate": doc["series"]["bytes:rate"]}}
    assert validate_timeline(unsorted) == [
        "series['m{b=1,a=2}:rate']: labels out of order, canonical 'm{a=2,b=1}'"]
    assert doc["n_windows"] >= 3
    assert doc["dropped_points"] == 0
    kinds = {s["kind"] for s in doc["series"].values()}
    assert {"rate", "value", "mean", "count", "quantile"} <= kinds
    assert doc["breaches"] and doc["breaches"][0]["kind"] == "threshold"


def test_step_compression_reconstructs_exactly():
    """Unchanged values are suppressed, but the flushed points still
    reconstruct the step curve exactly at every recorded tick."""
    series = Series("c:rate", "rate")
    ticks = [round(0.1 * (k + 1), 10) for k in range(20)]
    for t in ticks:
        series.record(t, 1000.0 if t <= 1.0 else 3000.0)
    series.finalize()
    # 20 ticks compress to 4 points: first, last-flat, change, last
    assert [p for p in series.points] == [
        (0.1, 1000.0), (1.0, 1000.0), (1.1, 3000.0), (2.0, 3000.0),
    ]
    assert value_at(series, 0.5) == 1000.0
    assert value_at(series, 1.0) == 1000.0  # the flushed last flat tick
    assert value_at(series, 1.05) == 1000.0  # step holds until the change
    assert value_at(series, 1.5) == 3000.0
    assert value_at(series, 0.05) is None  # before the first sample
    assert series.dropped == 0
    series.finalize()  # idempotent
    assert len(series.points) == 4


def test_interval_must_be_positive():
    sim = Simulator()
    reg = MetricsRegistry(sim)
    with pytest.raises(ValueError):
        TimelineScraper(sim, reg, interval=0.0)
