"""ASCII rendering of figure data (the repo's stand-in for plots)."""

from __future__ import annotations

from typing import List

from repro.bench.sweep import FigureData
from repro.units import GiB


def render_figure(figure: FigureData) -> str:
    """One aligned table in GiB/s: rows = x values (node counts),
    columns = series."""
    xs: List[int] = sorted({p.x for s in figure.series for p in s.points})
    label_width = max(12, *(len(s.label) for s in figure.series))
    x_width = max(6, len(figure.xlabel))
    header = f"{figure.figure_id}: {figure.title}  [GiB/s]"
    lines = [header, "-" * len(header)]
    col = f"{figure.xlabel:>{x_width}s} | " + " | ".join(
        f"{s.label:>{label_width}s}" for s in figure.series
    )
    lines.append(col)
    lines.append("-" * len(col))
    for x in xs:
        cells = []
        for series in figure.series:
            value = series.at(x)
            cells.append(
                f"{value / GiB:>{label_width}.2f}" if value is not None
                else " " * (label_width - 1) + "-"
            )
        lines.append(f"{x:>{x_width}d} | " + " | ".join(cells))
    return "\n".join(lines)
