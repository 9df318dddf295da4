"""FDB run reports: exact per-field tails, bandwidth, layer breakdowns.

The archiver and retriever keep *exact* per-field latency samples, so
the tails here are nearest-rank order statistics over the real sample
set, through the same :func:`repro.obs.latency_stats` as the serving
reports. The per-window views (the same rule over each window's
samples) live in the timeline JSON for SLO rules; this report is the
run-level summary the benchmarks gate on.

Everything in :func:`build_report` is a pure function of the run result
(simulated clock only — no wall time, no environment), so same-seed runs
compare byte-identical. That property is what the determinism tests and
the e2e ``fdb_fields`` pins hold.
"""

from __future__ import annotations

from repro.obs.metrics import latency_stats
from repro.units import fmt_bw, fmt_size, fmt_time


def _phase_section(phase: dict) -> dict:
    wall = phase["wall"]
    section = {
        "wall": wall,
        "fields": phase["fields"],
        "bytes": phase["bytes"],
        "bandwidth": phase["bytes"] / wall if wall > 0 else 0.0,
        "fields_per_s": phase["fields"] / wall if wall > 0 else 0.0,
        "latency": latency_stats(phase["latencies"]),
    }
    if phase.get("breakdown") is not None:
        section["breakdown"] = {
            layer: seconds
            for layer, seconds in sorted(phase["breakdown"].items())
        }
    return section


def build_report(result: dict, store=None) -> dict:
    """Derive the run report from :func:`repro.fdb.run.run_fdb` output.

    ``store`` is the run's optional
    :class:`~repro.obs.timeline.TimeSeriesStore`; when present the SLO
    breaches it accumulated are appended verbatim.
    """
    report = {
        "config": dict(result["config"]),
        "fields": result["n_fields"],
        "archive": _phase_section(result["archive"]),
        "retrieve": _phase_section(result["retrieve"]),
        "landmarks": list(result["landmarks"]),
        "slo_breaches": (
            [breach.to_json() for breach in store.breaches]
            if store is not None
            else []
        ),
        "end_time": result["end_time"],
    }
    return report


def render_report(report: dict) -> str:
    """Terminal-friendly rendering of :func:`build_report` output."""
    cfg = report["config"]
    lines = [
        f"fdb: {report['fields']} fields x "
        f"{fmt_size(cfg['field_bytes'])} on backend={cfg['backend']} "
        f"index={cfg['index']} "
        f"({'sync' if cfg['sync'] else 'async depth ' + str(cfg['depth'])})"
    ]
    for phase in ("archive", "retrieve"):
        p = report[phase]
        lat = p["latency"]
        lines.append(
            f"  {phase}: {p['fields']} fields ({fmt_size(int(p['bytes']))}) "
            f"in {fmt_time(p['wall'])} = {fmt_bw(p['bandwidth'])}, "
            f"{p['fields_per_s']:.0f} fields/s"
        )
        lines.append(
            f"    latency: p50 {fmt_time(lat['p50'])}  "
            f"p95 {fmt_time(lat['p95'])}  p99 {fmt_time(lat['p99'])}  "
            f"max {fmt_time(lat['max'])}"
        )
        if "breakdown" in p:
            parts = ", ".join(
                f"{layer} {fmt_time(seconds)}"
                for layer, seconds in p["breakdown"].items()
            )
            lines.append(f"    layers: {parts}")
    for landmark in report["landmarks"]:
        lines.append(
            f"  landmark {landmark['name']!r}: {landmark['fields']} fields "
            f"({fmt_size(int(landmark['bytes']))}) at "
            f"{fmt_time(landmark['time'])}"
        )
    if report["slo_breaches"]:
        lines.append(f"  SLO breaches: {len(report['slo_breaches'])}")
        for breach in report["slo_breaches"][:8]:
            lines.append(f"    {breach}")
    return "\n".join(lines)
