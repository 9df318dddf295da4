"""Observability: span tracing, metrics, timeline scraping, Chrome export.

Strictly opt-in: a fresh :class:`repro.sim.core.Simulator` carries
``tracer = metrics = timeline = None`` and every instrumented code path
costs one attribute check when they stay None. :func:`install` flips a
simulator to observed; ``Cluster.observe()`` is the usual entry point.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.obs.breakdown import layer_breakdown, phase_layer_breakdown
from repro.obs.chrome import chrome_trace, validate_chrome_trace, write_chrome_trace
from repro.obs.metrics import (
    QUANTILES,
    MetricsRegistry,
    exact_quantile,
    format_metric_name,
    latency_stats,
    parse_metric_name,
    write_metrics,
)
from repro.obs.slo import (
    SloBreach,
    SloRule,
    StallRule,
    default_rules,
    parse_slo,
)
from repro.obs.timeline import (
    DEFAULT_INTERVAL,
    TimelineScraper,
    TimeSeriesStore,
    write_timeline,
)
from repro.obs.tracer import Span, Tracer, span_of

__all__ = [
    "Tracer",
    "Span",
    "span_of",
    "MetricsRegistry",
    "format_metric_name",
    "parse_metric_name",
    "write_metrics",
    "QUANTILES",
    "exact_quantile",
    "latency_stats",
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "phase_layer_breakdown",
    "layer_breakdown",
    "TimelineScraper",
    "TimeSeriesStore",
    "DEFAULT_INTERVAL",
    "write_timeline",
    "SloRule",
    "StallRule",
    "SloBreach",
    "parse_slo",
    "default_rules",
    "install",
]


def install(
    sim,
    tracing: bool = True,
    metrics: bool = True,
    timeline_interval: Optional[float] = None,
    slo_rules: Optional[List[object]] = None,
) -> Tuple[Optional[Tracer], Optional[MetricsRegistry]]:
    """Attach a tracer and/or metrics registry to ``sim``.

    Idempotent: already-installed instruments are kept. Returns the
    ``(tracer, registry)`` pair (entries are None when not requested).

    ``timeline_interval`` additionally attaches a
    :class:`~repro.obs.timeline.TimelineScraper` (``sim.timeline``)
    sampling every that-many simulated seconds — this forces metrics
    on, since the scraper has nothing to sample otherwise.
    ``slo_rules`` is a list of rule strings (see :mod:`repro.obs.slo`)
    or pre-parsed rule objects; when None, :func:`default_rules` (the
    stall watchdog) applies.
    """
    if timeline_interval is not None:
        metrics = True
    if tracing and sim.tracer is None:
        sim.tracer = Tracer(sim)
    if metrics and sim.metrics is None:
        sim.metrics = MetricsRegistry(sim)
    if timeline_interval is not None and sim.timeline is None:
        if slo_rules is None:
            rules = default_rules()
        else:
            rules = [
                parse_slo(r) if isinstance(r, str) else r for r in slo_rules
            ]
        sim.timeline = TimelineScraper(
            sim,
            sim.metrics,
            tracer=sim.tracer,
            interval=timeline_interval,
            rules=rules,
        )
    return sim.tracer, sim.metrics
