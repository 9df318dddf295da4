"""Per-layer time accounting from recorded spans.

Answers the paper-evaluation question the raw figures can't: *where* did
an IOR phase spend its time? Each layer is charged its **exclusive**
time — span duration minus the duration of direct children (which are
charged to their own layers) — so the sum over layers equals the covered
span time exactly. Whatever wall time the root spans do not cover
(barrier waits, rank skew, scheduling gaps) is reported as
``(wait/other)``, which makes the components sum to the phase wall time
by construction.

All figures are normalised per rank (divided by ``nprocs``) so the
breakdown of a 16-rank phase reads as "seconds of a typical rank's
wall", directly comparable to the phase duration.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.obs.tracer import Span

#: Root spans of the IOR phases, by operation.
_ROOT_NAME = {"write": "ior.write", "read": "ior.read"}

WAIT_KEY = "(wait/other)"


def phase_layer_breakdown(
    spans: Iterable[Span],
    op: str,
    repetition: int,
    nprocs: int,
    wall: float,
) -> Optional[Dict[str, float]]:
    """Per-rank seconds spent exclusively in each layer during one phase.

    ``op`` is "write" or "read"; ``repetition`` selects the IOR rep the
    root spans were tagged with. Returns None when no matching spans were
    recorded (tracing disabled).
    """
    spans = list(spans)
    root_name = _ROOT_NAME.get(op)
    roots = [
        s
        for s in spans
        if s.name == root_name
        and s.kind != "i"
        and s.attrs.get("rep") == repetition
    ]
    return _exclusive_breakdown(spans, roots, nprocs, wall)


def layer_breakdown(
    spans: Iterable[Span],
    root_name: str,
    wall: float,
) -> Optional[Dict[str, float]]:
    """Exclusive-time per-layer breakdown under every ``root_name`` span,
    over one process.

    The generic form of :func:`phase_layer_breakdown` for subsystems
    whose phases are not IOR repetitions (e.g. the FDB archive/retrieve
    pipelines rooted at ``fdb.archive``/``fdb.retrieve``).
    """
    spans = list(spans)
    roots = [s for s in spans if s.name == root_name and s.kind != "i"]
    return _exclusive_breakdown(spans, roots, 1, wall)


def _exclusive_breakdown(
    spans: List[Span], roots: List[Span], nprocs: int, wall: float
) -> Optional[Dict[str, float]]:
    if not roots or nprocs <= 0:
        return None

    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent_id is not None and span.kind != "i":
            children.setdefault(span.parent_id, []).append(span)

    layer_seconds: Dict[str, float] = {}
    stack = list(roots)
    seen = set()
    while stack:
        span = stack.pop()
        if span.span_id in seen:
            continue
        seen.add(span.span_id)
        kids = children.get(span.span_id, ())
        child_time = sum(k.duration for k in kids)
        # A child may outlive its parent (e.g. an RPC reply message still
        # in flight when the engine span closes); clamp at zero so one
        # layer never goes negative at another's expense.
        exclusive = max(0.0, span.duration - child_time)
        layer_seconds[span.layer] = layer_seconds.get(span.layer, 0.0) + exclusive
        stack.extend(kids)

    breakdown = {
        layer: seconds / nprocs for layer, seconds in layer_seconds.items()
    }
    covered = sum(breakdown.values())
    breakdown[WAIT_KEY] = max(0.0, wall - covered)
    return breakdown
