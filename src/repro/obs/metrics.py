"""Hierarchical metrics registry with histograms and export formats.

Metric names follow ``layer.component.metric`` (DESIGN.md §10.1), e.g.
``engine.rpcs`` or ``ior.write.latency``, optionally carrying *labels*
in a ``{key=value,...}`` suffix — ``ior.write.latency{rank=3}``,
``rebuild.bytes_moved{pool=tank,target=5}`` — so per-pool, per-tenant,
per-target and per-rank traffic become separable series (DESIGN.md
§10.1). Label keys are kept sorted, making the full name canonical; the
registry is keyed on that canonical full name. The registry offers three
instrument kinds:

* :class:`Counter` — monotonically increasing totals,
* :class:`Gauge` — time-weighted values with their extrema (per-edge
  fabric utilisation, queue depths; the per-window curve is the
  timeline scraper's, :mod:`repro.obs.timeline`),
* :class:`Histogram` — log2-bucketed latency distributions with
  p50/p95/p99/p999 estimation.

Exports: :meth:`MetricsRegistry.to_prometheus` (text exposition format,
with cumulative ``_bucket{le=...}`` lines for histograms) and
:meth:`MetricsRegistry.snapshot` (JSON-serialisable dict);
:func:`write_metrics` picks the format from the file extension.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Smallest histogram bucket upper bound, in seconds (1 ns).
_HIST_LO = 1e-9
#: Number of log2 buckets; covers 1 ns .. ~584 years, plenty.
_HIST_BUCKETS = 64

#: The tail set every report and timeline publishes (stat key, quantile).
QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99), ("p999", 0.999))


# --------------------------------------------------------------------- labels
def format_metric_name(base: str, labels: Optional[Dict[str, Any]] = None) -> str:
    """Canonical full name: ``base{k=v,...}`` with keys sorted.

    Label keys and values are stringified verbatim; neither they nor the
    base may contain ``,`` ``{`` ``}`` or ``=`` (enforced here so every
    exporter — and :func:`parse_metric_name` — can round-trip the name).
    """
    if any(ch in base for ch in ",{}="):
        raise ValueError(
            f"metric base name {base!r} contains a reserved character"
        )
    if not labels:
        return base
    parts = []
    for key in sorted(labels):
        value = str(labels[key])
        if not key or any(ch in value for ch in ",{}=") or any(
            ch in key for ch in ",{}="
        ):
            raise ValueError(
                f"metric label {key}={value!r} contains a reserved character"
            )
        parts.append(f"{key}={value}")
    return f"{base}{{{','.join(parts)}}}"


def parse_metric_name(full: str) -> Tuple[str, Dict[str, str]]:
    """Split a full metric name into ``(base, labels)``.

    Strict inverse of :func:`format_metric_name`: raises ``ValueError``
    on anything that would not round-trip — an unterminated or empty
    label body, a repeated key, a base containing ``}``, or a key/value
    carrying a reserved character (``a{k=v}}`` and ``a{k=v=w}`` are
    malformed, not labels with funny values).
    """
    brace = full.find("{")
    if brace < 0:
        if "}" in full or "=" in full or "," in full:
            raise ValueError(f"malformed metric name {full!r}")
        return full, {}
    if not full.endswith("}"):
        raise ValueError(f"malformed metric name {full!r}")
    base = full[:brace]
    if any(ch in base for ch in ",}="):
        raise ValueError(f"malformed metric name {full!r}")
    labels: Dict[str, str] = {}
    for item in full[brace + 1:-1].split(","):
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ValueError(f"malformed metric label {item!r} in {full!r}")
        if any(ch in key for ch in "{}=") or any(
            ch in value for ch in "{}="
        ):
            raise ValueError(
                f"metric label {item!r} in {full!r} contains a "
                f"reserved character"
            )
        if key in labels:
            raise ValueError(f"metric label {key!r} repeated in {full!r}")
        labels[key] = value
    return base, labels


def canonical_metric_name(full: str) -> str:
    """``full`` with its label keys sorted, as :func:`format_metric_name`
    writes it; ``ValueError`` when it is malformed."""
    return format_metric_name(*parse_metric_name(full))


class Counter:
    """Monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def incr(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """Time-weighted gauge with its extrema.

    ``created`` pins the start of the observed window: a gauge first
    set at t>0 integrates no phantom 0 over [0, t) and its mean divides
    only by time it observed.
    """

    __slots__ = ("name", "created", "last_t", "value", "integral",
                 "vmin", "vmax")

    def __init__(self, name: str, created: float) -> None:
        self.name = name
        self.created = created
        self.last_t = created
        self.value = 0.0
        self.integral = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf

    def set(self, now: float, value: float) -> None:
        self.integral += self.value * (now - self.last_t)
        self.last_t = now
        self.value = value
        self.vmin = min(self.vmin, value)
        self.vmax = max(self.vmax, value)

    def add(self, now: float, delta: float) -> None:
        self.set(now, self.value + delta)

    def mean(self, now: float) -> float:
        window = now - self.created
        total = self.integral + self.value * (now - self.last_t)
        return total / window if window > 0 else self.value


def bucket_upper(idx: int) -> float:
    """Upper bound of log2 bucket ``idx`` in seconds."""
    return _HIST_LO * (2.0 ** idx)


def bucket_quantile(buckets: List[int], count: int, q: float) -> float:
    """Estimated q-quantile of a log2 bucket-count array (unclamped).

    The interpolation is identical to :meth:`Histogram.quantile` minus
    the observed-extrema clamp, so it works on *bucket deltas* — the
    per-window histograms of :mod:`repro.obs.timeline` — where exact
    extrema are not tracked. Returns 0.0 when ``count`` is 0.
    """
    if count <= 0:
        return 0.0
    rank = max(q, 0.0) * count
    seen = 0
    for idx, n in enumerate(buckets):
        if n == 0:
            continue
        if seen + n >= rank:
            lo = 0.0 if idx == 0 else bucket_upper(idx - 1)
            hi = bucket_upper(idx)
            frac = (rank - seen) / n
            return lo + (hi - lo) * frac
        seen += n
    return bucket_upper(_HIST_BUCKETS - 1)


def exact_quantile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an already-sorted sample list (the exact
    twin of :func:`bucket_quantile`'s estimate); 0.0 when empty."""
    n = len(sorted_values)
    if n == 0:
        return 0.0
    if q <= 0.0:
        return sorted_values[0]
    rank = math.ceil(q * n)
    return sorted_values[min(n - 1, max(0, rank - 1))]


def latency_stats(latencies: Sequence[float]) -> dict:
    """count/mean/max plus :data:`QUANTILES`, nearest-rank, over every
    sample: the one exact-latency summary the run reports publish."""
    values = sorted(latencies)
    n = len(values)
    stats = {
        "count": n,
        "mean": (sum(values) / n) if n else 0.0,
        "max": values[-1] if n else 0.0,
    }
    for key, q in QUANTILES:
        stats[key] = exact_quantile(values, q)
    return stats


class Histogram:
    """Log2-bucketed histogram of non-negative values (latencies).

    Bucket i holds values in (lo * 2^(i-1), lo * 2^i]; bucket 0 holds
    everything <= lo. Quantiles interpolate within the matched bucket,
    clamped by the exact observed min/max.
    """

    __slots__ = ("name", "buckets", "count", "total", "vmin", "vmax")

    def __init__(self, name: str) -> None:
        self.name = name
        self.buckets = [0] * _HIST_BUCKETS
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.vmin = min(self.vmin, value)
        self.vmax = max(self.vmax, value)
        self.buckets[self._index(value)] += 1

    @staticmethod
    def _index(value: float) -> int:
        if value <= _HIST_LO:
            return 0
        idx = int(math.ceil(math.log2(value / _HIST_LO)))
        return min(max(idx, 0), _HIST_BUCKETS - 1)

    def quantile(self, q: float) -> float:
        """Estimated q-quantile (q in [0, 1]); 0.0 when empty."""
        if self.count == 0:
            return 0.0
        if q <= 0:
            return self.vmin
        if q >= 1:
            return self.vmax
        est = bucket_quantile(self.buckets, self.count, q)
        return min(max(est, self.vmin), self.vmax)

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def p999(self) -> float:
        return self.quantile(0.999)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Create-on-first-use registry keyed by dotted metric names."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    # --------------------------------------------------------------- access
    #
    # A labelled name is taken as given: callers build it once with
    # format_metric_name (labels sorted) rather than per call.
    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name, self.sim.now)
        return g

    def histogram(self, name: str) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name)
        return h

    # shorthands used on instrumented hot paths
    def incr(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).incr(amount)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(self.sim.now, value)

    # --------------------------------------------------------------- export
    def snapshot(self) -> Dict[str, Any]:
        """JSON-serialisable dump of every instrument."""
        now = self.sim.now
        return {
            "sim_time": now,
            "counters": {
                name: c.value for name, c in sorted(self.counters.items())
            },
            "gauges": {
                name: {
                    "value": g.value,
                    "mean": g.mean(now),
                    "min": None if g.vmin is math.inf else g.vmin,
                    "max": None if g.vmax is -math.inf else g.vmax,
                }
                for name, g in sorted(self.gauges.items())
            },
            "histograms": {
                name: {
                    "count": h.count,
                    "mean": h.mean,
                    "min": None if h.vmin is math.inf else h.vmin,
                    "max": None if h.vmax is -math.inf else h.vmax,
                    "p50": h.p50,
                    "p95": h.p95,
                    "p99": h.p99,
                    "p999": h.p999,
                }
                for name, h in sorted(self.histograms.items())
            },
        }

    def to_prometheus(self) -> str:
        """Prometheus text exposition format.

        Base names are sanitised to ``[a-zA-Z0-9_]``; labels render in
        Prometheus syntax (``{k="v"}``). Histograms emit the real
        ``histogram`` type — cumulative ``_bucket{le="..."}`` lines up
        to the highest occupied log2 bucket plus ``+Inf``, then
        ``_sum``/``_count`` — so downstream tooling can aggregate them
        (summary quantiles cannot be merged across series).
        """
        now = self.sim.now
        lines: List[str] = []
        typed: set = set()

        def sanitise(name: str) -> str:
            return "".join(
                ch if ch.isalnum() or ch == "_" else "_" for ch in name
            )

        def split(full: str) -> Tuple[str, str]:
            """(sanitised base, rendered {k="v",...} or "")."""
            base, labels = parse_metric_name(full)
            if not labels:
                return sanitise(base), ""
            body = ",".join(
                f'{sanitise(k)}="{v}"' for k, v in sorted(labels.items())
            )
            return sanitise(base), "{" + body + "}"

        def type_line(metric: str, kind: str) -> None:
            # One TYPE line per base metric: labeled series share it.
            if metric not in typed:
                typed.add(metric)
                lines.append(f"# TYPE {metric} {kind}")

        def merge_labels(rendered: str, extra: str) -> str:
            if not rendered:
                return "{" + extra + "}"
            return rendered[:-1] + "," + extra + "}"

        for name, c in sorted(self.counters.items()):
            metric, lbl = split(name)
            type_line(metric, "counter")
            lines.append(f"{metric}{lbl} {c.value:g}")
        for name, g in sorted(self.gauges.items()):
            metric, lbl = split(name)
            type_line(metric, "gauge")
            lines.append(f"{metric}{lbl} {g.value:g}")
            lines.append(f"{metric}_mean{lbl} {g.mean(now):g}")
        for name, h in sorted(self.histograms.items()):
            metric, lbl = split(name)
            type_line(metric, "histogram")
            highest = -1
            for idx, n in enumerate(h.buckets):
                if n:
                    highest = idx
            cumulative = 0
            for idx in range(highest + 1):
                cumulative += h.buckets[idx]
                le = merge_labels(lbl, f'le="{bucket_upper(idx):g}"')
                lines.append(f"{metric}_bucket{le} {cumulative}")
            inf = merge_labels(lbl, 'le="+Inf"')
            lines.append(f"{metric}_bucket{inf} {h.count}")
            lines.append(f"{metric}_sum{lbl} {h.total:g}")
            lines.append(f"{metric}_count{lbl} {h.count}")
        return "\n".join(lines) + "\n"


def write_metrics(registry: MetricsRegistry, path: str) -> None:
    """Write a metrics dump; ``.prom``/``.txt`` → Prometheus text,
    anything else → JSON snapshot."""
    if path.endswith((".prom", ".txt")):
        payload = registry.to_prometheus()
    else:
        payload = json.dumps(registry.snapshot(), indent=1, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)
