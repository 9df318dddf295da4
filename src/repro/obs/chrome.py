"""Chrome trace-event JSON export.

Produces the JSON-object form of the trace-event format understood by
Perfetto (ui.perfetto.dev) and chrome://tracing: one "process" (pid) per
simulated node, one "thread" track (tid) per stack layer, "X" complete
events for spans, "i" instant events for markers (fault injections),
and — when a timeline store is supplied — "C" counter events so
bandwidth/queue-depth curves render alongside the spans. Timestamps are
microseconds of simulated time.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.obs.tracer import Tracer

#: Track ordering top-down the way a request descends the stack.
LAYER_ORDER = [
    "ior",
    "dfuse",
    "cache",
    "mpiio",
    "hdf5",
    "dfs",
    "client",
    "rpc",
    "fabric",
    "engine",
    "vos",
    "rebuild",
    "faults",
    "obs",
]

_US = 1e6  # simulated seconds -> trace microseconds


def _layer_tid(layer: str) -> int:
    try:
        return LAYER_ORDER.index(layer)
    except ValueError:
        return len(LAYER_ORDER)


def chrome_trace(tracer: Tracer, timeline=None) -> Dict[str, Any]:
    """Build the trace-event dict for ``tracer``'s recorded spans.

    ``timeline`` (a :class:`repro.obs.timeline.TimeSeriesStore`) adds
    "C" counter events on a dedicated pid-0 "timeline" process — one
    counter track per series — so Perfetto renders the sampled curves
    above the span tracks.
    """
    nodes = sorted({span.node or "cluster" for span in tracer.spans})
    pid_of = {node: pid for pid, node in enumerate(nodes, start=1)}
    events: List[Dict[str, Any]] = []

    if timeline is not None and timeline.series:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": 0,
                "tid": 0,
                "args": {"name": "timeline"},
            }
        )
    for node, pid in pid_of.items():
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": node},
            }
        )
    layers_by_node: Dict[str, set] = {}
    for span in tracer.spans:
        layers_by_node.setdefault(span.node or "cluster", set()).add(span.layer)
    for node, layers in layers_by_node.items():
        pid = pid_of[node]
        for layer in sorted(layers):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": _layer_tid(layer),
                    "args": {"name": layer},
                }
            )

    span_events: List[Dict[str, Any]] = []
    for span in tracer.spans:
        pid = pid_of[span.node or "cluster"]
        tid = _layer_tid(span.layer)
        args = dict(span.attrs)
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.kind == "i":
            span_events.append(
                {
                    "name": span.name,
                    "ph": "i",
                    "s": "p",
                    "ts": span.start * _US,
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
        else:
            end = span.end if span.end is not None else span.start
            span_events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": span.start * _US,
                    "dur": (end - span.start) * _US,
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
    if timeline is not None:
        for name, series in sorted(timeline.series.items()):
            series.finalize()
            for t, v in series.points:
                span_events.append(
                    {
                        "name": name,
                        "ph": "C",
                        "ts": t * _US,
                        "pid": 0,
                        "tid": 0,
                        "args": {"value": v},
                    }
                )
    span_events.sort(key=lambda ev: ev["ts"])
    events.extend(span_events)
    return {"displayTimeUnit": "ms", "traceEvents": events}


def write_chrome_trace(tracer: Tracer, path: str, timeline=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(tracer, timeline=timeline), fh, indent=1)


def validate_chrome_trace(doc: Any) -> List[str]:
    """Schema-check a trace document; returns a list of problems
    (empty == valid). Used by ``python -m repro.obs.validate`` and CI."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["top level is not an object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    last_ts: Optional[float] = None
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "M", "i", "C"):
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        for key in ("name", "pid", "tid"):
            if key not in ev:
                problems.append(f"{where}: missing {key!r}")
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: bad ts {ts!r}")
            continue
        if last_ts is not None and ts < last_ts:
            problems.append(f"{where}: ts {ts} < previous {last_ts}")
        last_ts = ts
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: bad dur {dur!r}")
    return problems
