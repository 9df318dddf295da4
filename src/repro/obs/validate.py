"""Observability-artifact validation CLI.

``python -m repro.obs.validate FILE.json [--kind trace|metrics|timeline]``

Validates any of the three JSON artifacts the obs pipeline emits:

* Chrome trace-event files (``--trace-out``) — schema checks in
  :func:`repro.obs.chrome.validate_chrome_trace`,
* metrics snapshots (``--metrics-out`` with a ``.json`` path) —
  :func:`validate_metrics_snapshot`,
* timeline dumps (``--timeline-out``) — :func:`validate_timeline`.

The kind is auto-detected from the document shape (``traceEvents`` →
trace, ``timeline_version`` → timeline, ``counters`` → metrics) unless
``--kind`` forces it. Exit status 0 when the file parses and passes; 1
otherwise, with problems listed on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, List

from repro.obs.chrome import validate_chrome_trace
from repro.obs.metrics import canonical_metric_name

_NUM = (int, float)


def detect_kind(doc: Any) -> str:
    """Best-effort artifact-kind detection; 'unknown' when ambiguous."""
    if not isinstance(doc, dict):
        return "unknown"
    if "traceEvents" in doc:
        return "trace"
    if "timeline_version" in doc:
        return "timeline"
    if "counters" in doc or "histograms" in doc:
        return "metrics"
    return "unknown"


def _check_name(name: str, where: str, problems: List[str]) -> None:
    """A metric name must parse and be canonical (label keys sorted)."""
    try:
        canonical = canonical_metric_name(name)
    except ValueError as exc:
        problems.append(f"{where}: {exc}")
        return
    if canonical != name:
        problems.append(f"{where}: labels out of order, canonical {canonical!r}")


def _check_names(section: Any, where: str, problems: List[str]) -> None:
    if not isinstance(section, dict):
        problems.append(f"{where}: not an object")
        return
    for name in section:
        _check_name(name, f"{where}[{name!r}]", problems)


def validate_metrics_snapshot(doc: Any) -> List[str]:
    """Schema-check a :meth:`MetricsRegistry.snapshot` dump."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["top level is not an object"]
    if not isinstance(doc.get("sim_time"), _NUM):
        problems.append(f"bad sim_time {doc.get('sim_time')!r}")
    for section in ("counters", "gauges", "histograms"):
        if section not in doc:
            problems.append(f"missing section {section!r}")
            continue
        _check_names(doc[section], section, problems)
    if "reservoirs" in doc:  # older snapshots carry the section
        _check_names(doc["reservoirs"], "reservoirs", problems)
    counters = doc.get("counters")
    if isinstance(counters, dict):
        for name, value in counters.items():
            if not isinstance(value, _NUM):
                problems.append(f"counters[{name!r}]: non-numeric {value!r}")
    histograms = doc.get("histograms")
    if isinstance(histograms, dict):
        for name, h in histograms.items():
            if not isinstance(h, dict):
                problems.append(f"histograms[{name!r}]: not an object")
                continue
            for key in ("count", "mean", "p50", "p95", "p99", "p999"):
                if not isinstance(h.get(key), _NUM):
                    problems.append(
                        f"histograms[{name!r}]: missing/bad {key!r}"
                    )
            quantiles = [h.get(k) for k in ("p50", "p95", "p99", "p999")]
            if all(isinstance(q, _NUM) for q in quantiles):
                if sorted(quantiles) != quantiles:
                    problems.append(
                        f"histograms[{name!r}]: quantiles not monotone "
                        f"{quantiles}"
                    )
    gauges = doc.get("gauges")
    if isinstance(gauges, dict):
        for name, g in gauges.items():
            if not isinstance(g, dict):
                problems.append(f"gauges[{name!r}]: not an object")
                continue
            for key in ("value", "mean"):
                if not isinstance(g.get(key), _NUM):
                    problems.append(f"gauges[{name!r}]: missing/bad {key!r}")
    return problems


_SERIES_KINDS = ("rate", "value", "mean", "quantile", "count")


def validate_timeline(doc: Any) -> List[str]:
    """Schema-check a :meth:`TimeSeriesStore.to_json` dump."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["top level is not an object"]
    if doc.get("timeline_version") != 1:
        problems.append(
            f"bad timeline_version {doc.get('timeline_version')!r}"
        )
    interval = doc.get("interval")
    if not isinstance(interval, _NUM) or interval <= 0:
        problems.append(f"bad interval {interval!r}")
    for key in ("start", "end"):
        if not isinstance(doc.get(key), _NUM):
            problems.append(f"bad {key} {doc.get(key)!r}")
    n_windows = doc.get("n_windows")
    if not isinstance(n_windows, int) or n_windows < 0:
        problems.append(f"bad n_windows {n_windows!r}")
    if not isinstance(doc.get("dropped_points"), int):
        problems.append(f"bad dropped_points {doc.get('dropped_points')!r}")
    series = doc.get("series")
    if not isinstance(series, dict):
        problems.append("series missing or not an object")
        series = {}
    for name, s in series.items():
        where = f"series[{name!r}]"
        base, _sep, stat = name.rpartition(":")
        if not base:
            problems.append(f"{where}: name lacks ':stat' suffix")
        else:
            _check_name(base, where, problems)
        if not isinstance(s, dict):
            problems.append(f"{where}: not an object")
            continue
        if s.get("kind") not in _SERIES_KINDS:
            problems.append(f"{where}: unknown kind {s.get('kind')!r}")
        points = s.get("points")
        if not isinstance(points, list):
            problems.append(f"{where}: points missing or not a list")
            continue
        last_t = None
        for i, point in enumerate(points):
            if (not isinstance(point, list) or len(point) != 2
                    or not all(isinstance(x, _NUM) for x in point)):
                problems.append(f"{where}.points[{i}]: bad point {point!r}")
                continue
            t = point[0]
            if last_t is not None and t < last_t:
                problems.append(
                    f"{where}.points[{i}]: ts {t} < previous {last_t}"
                )
            last_t = t
    breaches = doc.get("breaches")
    if not isinstance(breaches, list):
        problems.append("breaches missing or not a list")
        breaches = []
    for i, b in enumerate(breaches):
        where = f"breaches[{i}]"
        if not isinstance(b, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in ("time", "rule", "kind", "metric", "stat", "windows"):
            if key not in b:
                problems.append(f"{where}: missing {key!r}")
        if b.get("kind") not in ("threshold", "stall"):
            problems.append(f"{where}: unknown kind {b.get('kind')!r}")
        if not isinstance(b.get("time"), _NUM):
            problems.append(f"{where}: bad time {b.get('time')!r}")
    return problems


_VALIDATORS = {
    "trace": validate_chrome_trace,
    "metrics": validate_metrics_snapshot,
    "timeline": validate_timeline,
}


def validate_file(path: str, kind: str = "auto") -> list:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if kind == "auto":
        kind = detect_kind(doc)
        if kind == "unknown":
            return ["cannot detect artifact kind (use --kind)"]
    return _VALIDATORS[kind](doc)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.validate",
        description="Validate an obs artifact (Chrome trace, metrics "
                    "snapshot, or timeline JSON).",
    )
    parser.add_argument("file", help="path to the JSON artifact")
    parser.add_argument("--kind", choices=["auto", "trace", "metrics",
                                           "timeline"],
                        default="auto",
                        help="artifact kind (default: auto-detect)")
    args = parser.parse_args(argv)
    try:
        problems = validate_file(args.file, args.kind)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        return 1
    if problems:
        for problem in problems:
            print(f"{args.file}: {problem}", file=sys.stderr)
        return 1
    with open(args.file, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    kind = detect_kind(doc) if args.kind == "auto" else args.kind
    if kind == "trace":
        detail = f"{len(doc.get('traceEvents', []))} events"
    elif kind == "timeline":
        detail = (f"{len(doc.get('series', {}))} series, "
                  f"{doc.get('n_windows', 0)} windows, "
                  f"{len(doc.get('breaches', []))} breaches")
    else:
        detail = (f"{len(doc.get('counters', {}))} counters, "
                  f"{len(doc.get('histograms', {}))} histograms")
    print(f"{args.file}: OK ({kind}: {detail})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
