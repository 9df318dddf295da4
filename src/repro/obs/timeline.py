"""Deterministic sim-time metrics scraper and time-series store.

:class:`TimelineScraper` is a recurring simulator callback that samples
the :class:`~repro.obs.metrics.MetricsRegistry` every ``interval``
simulated seconds into a :class:`TimeSeriesStore`:

* counters become per-window **rates** (``name:rate``, delta divided by
  the *actual* elapsed time since the previous sample — not the nominal
  interval, so park gaps don't inflate rates),
* gauges become instantaneous **values** (``name:value``) and
  per-window time-weighted **means** (``name:mean``, integral deltas),
* histograms become per-window **counts** (``name:count``) and
  per-window **quantiles** (``name:p50/p95/p99/p999``): the
  nearest-rank :func:`repro.obs.metrics.exact_quantile` of the samples
  observed since the previous scrape, so a window's tail never exceeds
  what the window saw.

Zero perturbation: tick callbacks only *read* simulation state — no RNG
draws, no task scheduling, no state mutation outside the scraper's own
store — so figure outputs are byte-identical with the scraper on or
off (``tests/obs/test_timeline_determinism.py`` pins this). Scheduling
ticks does advance the simulator's event sequence counter, but the
relative FIFO order of all non-scraper events is unchanged.

Deadlock transparency: a perpetually self-rescheduling task would keep
the event heap non-empty forever and mask
:class:`~repro.errors.DeadlockError`. The scraper therefore **parks**
whenever it finds the heap empty at a tick, and is revived by a poke
from :meth:`repro.sim.core.Simulator.spawn` (``sim.timeline``). Tick
times stay aligned to ``origin + k*interval`` across park gaps; only
the partial window that reading :attr:`TimelineScraper.store` closes
ends off the grid.

The SLO/stall watchdog (rules from :mod:`repro.obs.slo`) is evaluated
at every tick over the freshly closed window; breaches land in the
store, in ``obs.slo.breaches``, and as ``slo.breach`` instants in the
trace.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import QUANTILES, MetricsRegistry, exact_quantile
from repro.obs.slo import SloBreach, SloRule, StallRule

#: Default scrape interval in simulated seconds (10 ms).
DEFAULT_INTERVAL = 0.01

#: Points kept per series before dropping (reported, never silent).
SERIES_POINT_CAP = 100_000


class Series:
    """One named time-series with step-change compression.

    A point is recorded only when the value differs from the previous
    recorded value; before appending the change, the last suppressed
    ``(t, v)`` is flushed so step curves reconstruct exactly. The value
    at any time ``t`` is the value of the last point at or before ``t``.
    """

    __slots__ = ("name", "kind", "points", "dropped",
                 "_last_t", "_suppressed")

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        self.kind = kind
        self.points: List[Tuple[float, float]] = []
        self.dropped = 0
        self._last_t: Optional[float] = None
        self._suppressed = False

    def record(self, t: float, v: float) -> None:
        if self.points and self.points[-1][1] == v:
            self._last_t = t
            self._suppressed = True
            return
        if self._suppressed:
            self._append(self._last_t, self.points[-1][1])
            self._suppressed = False
        self._append(t, v)
        self._last_t = t

    def _append(self, t: float, v: float) -> None:
        if len(self.points) >= SERIES_POINT_CAP:
            self.dropped += 1
            return
        self.points.append((t, v))

    def finalize(self) -> None:
        """Flush the trailing suppressed point (idempotent)."""
        if self._suppressed:
            self._append(self._last_t, self.points[-1][1])
            self._suppressed = False


class TimeSeriesStore:
    """In-memory labeled time-series + breach log, JSON-exportable."""

    def __init__(self, interval: float, origin: float = 0.0) -> None:
        self.interval = interval
        self.origin = origin
        self.series: Dict[str, Series] = {}
        self.breaches: List[SloBreach] = []
        self.n_windows = 0
        self.end = origin

    def record(self, name: str, kind: str, t: float, v: float) -> None:
        s = self.series.get(name)
        if s is None:
            s = self.series[name] = Series(name, kind)
        s.record(t, v)

    def to_json(self) -> Dict[str, Any]:
        for s in self.series.values():
            s.finalize()
        dropped = sum(s.dropped for s in self.series.values())
        return {
            "timeline_version": 1,
            "interval": self.interval,
            "start": self.origin,
            "end": self.end,
            "n_windows": self.n_windows,
            "series": {
                name: {
                    "kind": s.kind,
                    "points": [[t, v] for t, v in s.points],
                }
                for name, s in sorted(self.series.items())
            },
            "breaches": [b.to_json() for b in self.breaches],
            "dropped_points": dropped,
        }


def write_timeline(store: TimeSeriesStore, path: str) -> None:
    """Write the store as timeline JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(store.to_json(), indent=1, sort_keys=True))


class TimelineScraper:
    """Recurring sim-time sampler over a :class:`MetricsRegistry`."""

    def __init__(
        self,
        sim,
        registry: MetricsRegistry,
        tracer=None,
        interval: float = DEFAULT_INTERVAL,
        rules: Optional[List[object]] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"timeline interval must be positive: {interval}")
        self.sim = sim
        self.registry = registry
        self.tracer = tracer
        self.interval = interval
        self.rules = list(rules or [])
        self.origin = sim.now
        self._store = TimeSeriesStore(interval, origin=self.origin)
        # Park/revive state: start parked, first spawn pokes us alive.
        self._parked = True
        self._k = 0  # index of the last sampled tick (origin + k*interval)
        self._scheduled_k = 0
        self._last_t = self.origin
        # Previous-sample state for window deltas.
        self._last_counters: Dict[str, float] = {}
        self._last_gauge_integrals: Dict[str, float] = {}
        self._last_count: Dict[str, int] = {}
        # Current-window stats for rule evaluation.
        self._win_elapsed = 0.0
        self._win_counter_delta: Dict[str, float] = {}
        self._win_gauge_mean: Dict[str, float] = {}
        self._win_samples: Dict[str, List[float]] = {}  # sorted
        self._streaks: List[int] = [0] * len(self.rules)

    # ------------------------------------------------------------- lifecycle
    def on_activity(self) -> None:
        """Poke from ``Simulator.spawn``: revive a parked scraper.

        The next tick lands on the first grid point ``origin +
        k*interval`` strictly after ``now`` (and after the last sampled
        tick, so a window is never sampled twice).
        """
        if not self._parked:
            return
        self._parked = False
        now = self.sim.now
        k = int((now - self.origin) / self.interval + 1e-9) + 1
        k = max(k, self._k + 1)
        self._schedule_tick(k)

    def _schedule_tick(self, k: int) -> None:
        self._scheduled_k = k
        t = self.origin + k * self.interval
        self.sim.schedule(max(t - self.sim.now, 0.0), self._tick)

    def _tick(self) -> None:
        now = self.sim.now
        self._sample(now)
        self._k = self._scheduled_k
        # Park when nothing else is pending: staying scheduled would
        # keep the heap non-empty forever and mask DeadlockError.
        if self.sim._heap:
            self._schedule_tick(self._k + 1)
        else:
            self._parked = True

    @property
    def store(self) -> TimeSeriesStore:
        """The series so far, with the open partial window closed.

        A run can end between ticks (``cluster.run`` returns when its
        task does, leaving the next tick queued), so reading the store
        while a tick is pending samples ``now`` first: the run's last
        ops land in one final, off-grid window, and no heap event is
        pushed. A parked scraper has nothing unsampled, and a second
        read at the same instant samples nothing.
        """
        if not self._parked and self.sim.now > self._last_t:
            self._sample(self.sim.now)
        return self._store

    # -------------------------------------------------------------- sampling
    def _sample(self, now: float) -> None:
        reg = self.registry
        store = self._store
        elapsed = now - self._last_t
        self._win_elapsed = elapsed
        self._win_counter_delta.clear()
        self._win_gauge_mean.clear()
        self._win_samples.clear()

        for name, c in reg.counters.items():
            value = c.value if c.lead is None else c.value + c.lead(now)
            last = self._last_counters.get(name, 0.0)
            delta = value - last
            self._last_counters[name] = value
            self._win_counter_delta[name] = delta
            rate = delta / elapsed if elapsed > 0 else 0.0
            store.record(f"{name}:rate", "rate", now, rate)

        for name, g in reg.gauges.items():
            integral = g.integral + g.value * (now - g.last_t)
            last = self._last_gauge_integrals.get(name, 0.0)
            self._last_gauge_integrals[name] = integral
            mean = (integral - last) / elapsed if elapsed > 0 else g.value
            self._win_gauge_mean[name] = mean
            store.record(f"{name}:value", "value", now, g.value)
            store.record(f"{name}:mean", "mean", now, mean)

        for name, h in reg.histograms.items():
            window = sorted(h.samples[self._last_count.get(name, 0):])
            self._last_count[name] = h.count
            self._win_samples[name] = window
            store.record(f"{name}:count", "count", now, float(len(window)))
            if window:
                for label, q in QUANTILES:
                    store.record(f"{name}:{label}", "quantile", now,
                                 exact_quantile(window, q))

        store.n_windows += 1
        store.end = now
        self._last_t = now
        self._evaluate_rules(now)

    # ------------------------------------------------------------ windows API
    def window_stat(self, metric: str, stat: str) -> Optional[float]:
        """Stat of ``metric`` over the last closed window (rule lookup).

        ``rate`` → counter rate; ``value`` → gauge value; ``mean`` →
        gauge window mean, else histogram window mean; ``count`` →
        histogram window count; ``p50/p95/p99/p999`` → histogram window
        quantile. None when undefined (unknown metric, empty window).
        """
        if stat == "rate":
            delta = self._win_counter_delta.get(metric)
            if delta is None:
                return None
            return delta / self._win_elapsed if self._win_elapsed > 0 else 0.0
        if stat == "value":
            g = self.registry.gauges.get(metric)
            return None if g is None else g.value
        if stat == "mean":
            if metric in self._win_gauge_mean:
                return self._win_gauge_mean[metric]
            window = self._win_samples.get(metric)
            return sum(window) / len(window) if window else None
        if stat == "count":
            window = self._win_samples.get(metric)
            return None if window is None else float(len(window))
        q = dict(QUANTILES).get(stat)
        window = self._win_samples.get(metric)
        if q is None or not window:
            return None
        return exact_quantile(window, q)

    # ----------------------------------------------------------------- rules
    def _evaluate_rules(self, now: float) -> None:
        for i, rule in enumerate(self.rules):
            if isinstance(rule, StallRule):
                progress = self._win_counter_delta.get(rule.progress)
                guard = self._win_gauge_mean.get(rule.guard)
                violated = rule.violated(progress, guard)
                value, threshold = progress, None
                metric, stat = rule.progress, "rate"
            else:
                value = self.window_stat(rule.metric, rule.stat)
                violated = rule.violated(value)
                threshold = rule.threshold
                metric, stat = rule.metric, rule.stat
            if not violated:
                self._streaks[i] = 0
                continue
            self._streaks[i] += 1
            # Breach once, on the transition to the N-th consecutive
            # violating window; a clean window re-arms the rule.
            if self._streaks[i] != rule.windows:
                continue
            breach = SloBreach(
                time=now, rule=rule.text, kind=rule.kind,
                metric=metric, stat=stat, windows=rule.windows,
                value=value, threshold=threshold,
            )
            if isinstance(rule, StallRule):
                breach.extra["guard"] = rule.guard
                breach.extra["guard_mean"] = self._win_gauge_mean.get(
                    rule.guard
                )
            self._store.breaches.append(breach)
            self.registry.incr("obs.slo.breaches")
            if self.tracer is not None:
                self.tracer.instant(
                    "slo.breach", "obs", attrs=breach.to_json()
                )
