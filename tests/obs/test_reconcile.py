"""The timeline reconciles with the metrics it scrapes.

Each README-style observed run goes through its command line in process,
with every scrape recorded beside the scraper (the window's end and each
histogram's count then). Over the run's windows:

* per-window histogram counts sum to each histogram's count;
* every window quantile lies within that window's own samples;
* counter rate x window length sums to the counter's total plus its
  ``lead`` at ``store.end``;
* gauge window mean x window length sums to the gauge's integral;
* no window ends after ``store.end``;
* a window with a transfer in flight moves wire bytes.

The tenants and FDB reports read their latency blocks from the same
samples, under the same rule, as the matching histograms.
"""

import contextlib
import io
import json
from unittest import mock

import pytest

from repro.fdb import cli as fdb_cli
from repro.ior import cli as ior_cli
from repro.obs.metrics import QUANTILES, format_metric_name, latency_stats
from repro.obs.timeline import TimelineScraper
from repro.tenants import cli as tenants_cli

RUNS = {
    "ior-dfs": (ior_cli, ["-a", "DFS", "-F", "-b", "4m", "-t", "1m", "-N",
                          "1", "--ppn", "4", "--timeline-interval", "0.0005"]),
    "ior-hdf5-daos": (ior_cli, ["-a", "HDF5-DAOS", "-b", "4m", "-t", "1m",
                                "--aio-depth", "4",
                                "--timeline-interval", "0.002"]),
    "tenants-chaos-qos": (tenants_cli, ["--tenants", "8", "--chaos",
                                        "--qos"]),
    "fdb-kv": (fdb_cli, ["--params", "4", "--steps", "4", "--field-size",
                         "2m", "--depth", "8", "--retrieve-param", "t2m",
                         "--timeline-interval", "0.0005"]),
}


class Observed:
    """One run: its scraper, store, report and recorded windows."""

    def __init__(self, scraper, windows, report):
        self.scraper = scraper
        self.registry = scraper.registry
        self.store = scraper.store
        self.report = report
        #: (end, {histogram: count at that end}) per scrape, in order
        self.windows = windows

    def spans(self):
        """(start, end) of every window, in order."""
        start = self.scraper.origin
        for end, _counts in self.windows:
            yield start, end
            start = end

    def per_window(self, series_name):
        """The series' value in each window (None before it exists)."""
        series = self.store.series.get(series_name)
        if series is None:
            return [None] * len(self.windows)
        series.finalize()
        values = []
        for end, _counts in self.windows:
            best = None
            for t, v in series.points:
                if t > end:
                    break
                best = v
            values.append(best)
        return values


def _observe(name, tmp_path_factory):
    """Run ``RUNS[name]`` through its command line, recording every
    scrape."""
    cli, argv = RUNS[name]
    windows, scrapers = [], []
    sample = TimelineScraper._sample

    def recorded(self, now):
        scrapers.append(self)
        counts = {hist: h.count
                  for hist, h in self.registry.histograms.items()}
        windows.append((now, counts))
        sample(self, now)

    tmp = tmp_path_factory.mktemp(name)
    argv = argv + ["--timeline-out", str(tmp / "timeline.json")]
    report = None
    if cli is not ior_cli:
        report = tmp / "report.json"
        argv += ["--report-out", str(report)]
    out = io.StringIO()
    with mock.patch.object(TimelineScraper, "_sample", recorded), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        assert cli.main(argv) == 0, out.getvalue()
        assert len(set(map(id, scrapers))) == 1
        return Observed(scrapers[0], windows,
                        report and json.loads(report.read_text()))


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each run once per module, on first use."""
    done = {}

    def get(name):
        if name not in done:
            done[name] = _observe(name, tmp_path_factory)
        return done[name]
    return get


@pytest.fixture(params=sorted(RUNS))
def run(request, runs):
    return runs(request.param)


def test_window_counts_sum_to_each_histogram_count(run):
    assert run.registry.histograms
    for name, h in run.registry.histograms.items():
        counts = run.per_window(f"{name}:count")
        assert sum(c or 0.0 for c in counts) == h.count, name


def test_window_quantiles_lie_within_the_window_samples(run):
    seen = 0
    for name, h in run.registry.histograms.items():
        series = {label: run.per_window(f"{name}:{label}")
                  for label, _q in QUANTILES}
        first = 0
        for k, (_end, counts) in enumerate(run.windows):
            last = counts.get(name, 0)
            window = h.samples[first:last]
            first = last
            if not window:
                continue
            seen += 1
            for label, values in series.items():
                assert min(window) <= values[k] <= max(window), (
                    name, k, label)
    assert seen


def test_counter_rates_integrate_to_totals_plus_lead(run):
    end = run.store.end
    spans = list(run.spans())
    for name, c in run.registry.counters.items():
        rates = run.per_window(f"{name}:rate")
        integral = sum((r or 0.0) * (b - a)
                       for r, (a, b) in zip(rates, spans))
        total = c.value + (c.lead(end) if c.lead is not None else 0.0)
        assert integral == pytest.approx(total, rel=1e-9, abs=1e-9), name


def test_gauge_window_means_integrate_to_the_gauge_integral(run):
    end = run.store.end
    spans = list(run.spans())
    assert run.registry.gauges
    for name, g in run.registry.gauges.items():
        means = run.per_window(f"{name}:mean")
        integral = sum((m or 0.0) * (b - a)
                       for m, (a, b) in zip(means, spans))
        expected = g.integral + g.value * (end - g.last_t)
        assert integral == pytest.approx(expected, rel=1e-9, abs=1e-12), \
            name


def test_no_window_ends_after_the_store(run):
    store = run.store
    assert store.end == run.scraper.sim.now
    assert store.n_windows == len(run.windows)
    ends = [end for end, _counts in run.windows]
    assert ends == sorted(ends) and ends[-1] == store.end
    for series in store.series.values():
        assert all(t <= store.end for t, _v in series.points), series.name


def test_a_window_with_a_transfer_in_flight_moves_wire_bytes(run):
    inflight = run.per_window("fabric.xfer.inflight:mean")
    rates = run.per_window("fabric.xfer.bytes:rate")
    for k, mean in enumerate(inflight):
        if mean:  # a kv-only run opens no transfer
            assert rates[k] > 0, (k, run.windows[k][0])


@pytest.mark.parametrize("name", ["fdb-kv", "tenants-chaos-qos"])
def test_report_latency_is_latency_stats_of_the_histogram(runs, name):
    run = runs(name)
    snapshot = run.registry.snapshot()["histograms"]
    blocks = list(_latency_blocks(run.report))
    assert len(blocks) > 1
    for block, name in blocks:
        samples = run.registry.histograms[name].samples
        assert samples and block == latency_stats(samples), name
        for label, _q in QUANTILES:
            assert snapshot[name][label] == block[label], (name, label)


def _latency_blocks(report):
    """(report latency block, histogram name) pairs of a run's report."""
    if "archive" in report:  # an FDB report: one block per phase
        backend = report["config"]["backend"]
        for phase in ("archive", "retrieve"):
            yield report[phase]["latency"], format_metric_name(
                "fdb.field.latency", {"backend": backend, "phase": phase})
        return
    yield report["latency"], "tenant.request.latency"
    for tenant, entry in report["tenants"].items():
        yield entry["latency"], format_metric_name(
            "tenant.request.latency", {"tenant": tenant})
