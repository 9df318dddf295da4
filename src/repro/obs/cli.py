"""The observability front door every command line shares.

``repro-ior``, ``repro-tenants`` and ``repro-fdb`` define the five flags
through :func:`add_arguments`, switch their cluster to observed through
:func:`observe` and write the files the flags name through
:func:`write_artifacts`, so a flag, a default or an artifact format
changed here changes for all three. Not imported by :mod:`repro.obs`
itself: argparse stays off the simulated path.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from repro.obs.chrome import write_chrome_trace
from repro.obs.metrics import write_metrics
from repro.obs.slo import parse_slo
from repro.obs.timeline import write_timeline
from repro.units import parse_size


def integer(text: str) -> int:
    """argparse ``type=`` for seeds: any ``int(text, 0)`` literal (0xDA05)."""
    return int(text, 0)


def positive_int(text: str) -> int:
    """argparse ``type=`` for counts: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def positive_float(text: str) -> float:
    """argparse ``type=`` for rates and durations: a finite number > 0."""
    value = float(text)
    if not 0 < value < math.inf:  # also false for nan
        raise argparse.ArgumentTypeError(
            f"must be positive and finite, got {text}")
    return value


def positive_size(text: str) -> int:
    """argparse ``type=`` for byte counts ("64k", "1m"): at least 1."""
    value = parse_size(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def artifact_path(text: str) -> str:
    """argparse ``type=`` for an output file: its directory must exist
    and be writable, so a run cannot finish and then fail to write."""
    parent = os.path.dirname(text) or "."
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        raise argparse.ArgumentTypeError(
            f"cannot write {text!r}: {parent!r} is not a writable directory"
        )
    return text


def _rule(text: str) -> str:
    try:
        parse_slo(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def add_arguments(parser: argparse.ArgumentParser, default_interval: float):
    """Add the shared ``observability`` group to ``parser`` and return
    it, so a front-end can append its own report flags to the group."""
    group = parser.add_argument_group("observability")
    group.add_argument("--trace-out", metavar="PATH", type=artifact_path,
                       help="write a Chrome trace-event JSON of the run "
                            "(open at ui.perfetto.dev)")
    group.add_argument("--metrics-out", metavar="PATH", type=artifact_path,
                       help="write a metrics dump (.prom/.txt = Prometheus "
                            "text, anything else = JSON snapshot)")
    group.add_argument("--timeline-out", metavar="PATH", type=artifact_path,
                       help="write the run's time-series JSON (sim-time "
                            "metrics scraper)")
    group.add_argument("--timeline-interval", type=positive_float,
                       default=default_interval, metavar="SECONDS",
                       help="scrape interval in simulated seconds "
                            f"(default {default_interval:g})")
    group.add_argument("--slo", action="append", type=_rule, default=[],
                       metavar="RULE",
                       help="SLO/stall rule evaluated per scrape window, "
                            "e.g. 'ior.write.latency{rank=0} p99 < 2e-3 "
                            "over 3 windows' or 'stall fabric.xfer.bytes "
                            "while client.io.inflight over 2 windows'; "
                            "repeatable (default: the stall watchdog)")
    return group


def settings(args, tracing: bool = False, timeline: bool = False) -> dict:
    """The ``Cluster.observe`` keywords the parsed flags ask for, and
    whether to observe at all (``metrics``, which ``observe`` drops): spans
    for ``--trace-out``; the sim-time scraper for ``--timeline-out`` or
    any ``--slo`` rule (a rule needs windows to be evaluated over);
    metrics with either or for ``--metrics-out``, so ``metrics`` is False
    exactly when nothing is to be observed. ``tracing`` / ``timeline``
    force that instrument on for a front-end whose report reads it."""
    tracing = tracing or bool(args.trace_out)
    timeline = timeline or bool(args.timeline_out or args.slo)
    return dict(
        tracing=tracing,
        metrics=tracing or timeline or bool(args.metrics_out),
        timeline_interval=args.timeline_interval if timeline else None,
        slo_rules=args.slo or None,
    )


def observe(cluster, args, **force) -> None:
    """Switch ``cluster`` to observed as :func:`settings` says."""
    wanted = settings(args, **force)
    if wanted.pop("metrics"):
        cluster.observe(**wanted)


def timeline_store(cluster):
    """The run's ``TimeSeriesStore``, or None without a scraper."""
    timeline = cluster.sim.timeline
    return timeline.store if timeline is not None else None


def write_json(doc, path, what: str) -> None:
    """Write ``doc`` as stable JSON to ``path`` (no-op without a path)."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        print(f"{what} written to {path}", file=sys.stderr)


def write_artifacts(cluster, args) -> None:
    """Write the trace / metrics / timeline files the flags name."""
    sim = cluster.sim
    store = timeline_store(cluster)
    if args.trace_out:
        write_chrome_trace(sim.tracer, args.trace_out, timeline=store)
        print(f"trace written to {args.trace_out}", file=sys.stderr)
    if args.metrics_out:
        write_metrics(sim.metrics, args.metrics_out)
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    if args.timeline_out:
        write_timeline(store, args.timeline_out)
        print(f"timeline written to {args.timeline_out}", file=sys.stderr)
