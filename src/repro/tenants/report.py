"""Serving-run reports: exact tails, fairness, per-tenant SLO breaches.

The dispatcher keeps every per-tenant latency sample, so tail
percentiles here are nearest-rank order statistics over the real sample
set — the same rule the timeline scraper applies to each window's
samples for SLO rules during the run.

Fairness is the Jain index over per-tenant delivered bytes,

    J = (sum x)^2 / (n * sum x^2),

which is 1.0 when every tenant gets the same share and 1/n when one
tenant gets everything. Tenants that never arrived are excluded (they
offered no load, so they cannot be treated as starved).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.obs.metrics import latency_stats, parse_metric_name
from repro.units import fmt_size, fmt_time


def jain_fairness(shares: Sequence[float]) -> float:
    """Jain's fairness index; 1.0 for the empty or all-zero allocation
    (nothing was delivered, so nobody was favoured)."""
    n = len(shares)
    if n == 0:
        return 1.0
    total = float(sum(shares))
    sumsq = float(sum(x * x for x in shares))
    if sumsq == 0.0:
        return 1.0
    return (total * total) / (n * sumsq)


def breaches_by_tenant(store) -> Dict[str, List[dict]]:
    """Group a timeline store's SLO breaches by the ``tenant`` label of
    the breached metric; fleet-level breaches land under ``""``."""
    grouped: Dict[str, List[dict]] = {}
    if store is None:
        return grouped
    for breach in store.breaches:
        try:
            _base, labels = parse_metric_name(breach.metric)
        except ValueError:
            labels = {}
        grouped.setdefault(labels.get("tenant", ""), []).append(
            breach.to_json()
        )
    return grouped


def build_report(result: dict, store=None) -> dict:
    """Derive the serving report from ``Dispatcher.result()`` output.

    ``store`` is the optional :class:`~repro.obs.timeline.TimeSeriesStore`
    of the run (adds per-tenant SLO breach grouping). The returned dict
    is JSON-serialisable and a pure function of its inputs — no wall
    clock, no environment — so same-seed runs compare byte-identical.
    """
    tenants = result["tenants"]
    per_tenant: Dict[str, dict] = {}
    active_bytes: List[float] = []
    all_latencies: List[float] = []
    totals = {"arrivals": 0, "admitted": 0, "rejected": 0,
              "completed": 0, "failed": 0, "bytes": 0.0}
    breaches = breaches_by_tenant(store)
    for tid in sorted(tenants):
        t = tenants[tid]
        all_latencies.extend(t["latencies"])
        entry = {
            "kind": t["kind"],
            "arrivals": t["arrivals"],
            "admitted": t["admitted"],
            "rejected": t["rejected"],
            "completed": t["completed"],
            "failed": t["failed"],
            "bytes": t["bytes"],
            "qos_waited": t.get("qos_waited", 0.0),
            "latency": latency_stats(t["latencies"]),
            "slo_breaches": len(breaches.get(tid, ())),
        }
        per_tenant[tid] = entry
        for key in ("arrivals", "admitted", "rejected", "completed",
                    "failed", "bytes"):
            totals[key] += t[key]
        if t["arrivals"] > 0:
            active_bytes.append(t["bytes"])
    duration = result["config"]["duration"]
    report = {
        "config": dict(result["config"]),
        "totals": totals,
        "rejection_rate": (
            totals["rejected"] / totals["arrivals"]
            if totals["arrivals"] else 0.0
        ),
        "latency": latency_stats(all_latencies),
        "fairness_bytes": jain_fairness(active_bytes),
        "throughput": totals["bytes"] / duration if duration > 0 else 0.0,
        "tenants": per_tenant,
        "slo_breaches": {
            tid: events for tid, events in sorted(breaches.items())
        },
        "end_time": result["end_time"],
    }
    return report


#: per-tenant rows :func:`render_report` prints before eliding the rest
MAX_ROWS = 12


def render_report(report: dict) -> str:
    """Terminal-friendly rendering of :func:`build_report` output."""
    cfg = report["config"]
    totals = report["totals"]
    lat = report["latency"]
    lines = [
        f"tenants: {cfg['n_tenants']} over {fmt_time(cfg['duration'])} "
        f"(QoS {'on' if cfg['qos_enabled'] else 'off'})",
        f"  jobs: {totals['arrivals']} arrived, {totals['admitted']} "
        f"admitted, {totals['rejected']} rejected "
        f"({100.0 * report['rejection_rate']:.1f}%), "
        f"{totals['completed']} completed, {totals['failed']} failed",
        f"  delivered: {fmt_size(int(totals['bytes']))} "
        f"({fmt_size(int(report['throughput']))}/s), "
        f"fairness (Jain, bytes) {report['fairness_bytes']:.3f}",
        f"  latency: p50 {fmt_time(lat['p50'])}  p95 {fmt_time(lat['p95'])} "
        f" p99 {fmt_time(lat['p99'])}  p999 {fmt_time(lat['p999'])} "
        f" max {fmt_time(lat['max'])}",
    ]
    n_breaches = sum(len(v) for v in report["slo_breaches"].values())
    if n_breaches:
        lines.append(f"  SLO breaches: {n_breaches}")
        for tid, events in report["slo_breaches"].items():
            who = tid or "<fleet>"
            lines.append(f"    {who}: {len(events)}")
    header = (
        f"  {'tenant':<10s} {'kind':<5s} {'arr':>5s} {'rej':>5s} "
        f"{'done':>5s} {'fail':>5s} {'p99':>9s} {'bytes':>10s}"
    )
    lines.append(header)
    shown = 0
    for tid, t in report["tenants"].items():
        if shown >= MAX_ROWS:
            lines.append(
                f"  ... {len(report['tenants']) - shown} more tenants"
            )
            break
        lines.append(
            f"  {tid:<10s} {t['kind']:<5s} {t['arrivals']:>5d} "
            f"{t['rejected']:>5d} {t['completed']:>5d} {t['failed']:>5d} "
            f"{fmt_time(t['latency']['p99']):>9s} "
            f"{fmt_size(int(t['bytes'])):>10s}"
        )
        shown += 1
    return "\n".join(lines)
