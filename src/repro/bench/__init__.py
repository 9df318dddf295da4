"""Benchmark harness: sweeps, figure assembly, and table rendering.

:mod:`repro.bench.figures` regenerates the data behind every figure of
the paper (and this reproduction's ablations); :mod:`repro.bench.tables`
renders the series as aligned ASCII tables (the textual equivalent of
the paper's plots) and checks the headline *shape* properties listed in
DESIGN.md §4.
"""

from repro.bench.sweep import Series, SeriesPoint, FigureData
from repro.bench.figures import (
    async_depth_sweep,
    cache_fpp_sweep,
    rebuild_fpp_sweep,
    fig1_fpp,
    fig2_shared,
    lustre_contrast,
    FULL_NODE_COUNTS,
    QUICK_NODE_COUNTS,
)
from repro.bench.tables import render_figure

__all__ = [
    "Series",
    "SeriesPoint",
    "FigureData",
    "async_depth_sweep",
    "cache_fpp_sweep",
    "rebuild_fpp_sweep",
    "fig1_fpp",
    "fig2_shared",
    "lustre_contrast",
    "render_figure",
    "FULL_NODE_COUNTS",
    "QUICK_NODE_COUNTS",
]
