"""Benchmark harness: sweeps, figure assembly, and table rendering.

:mod:`repro.bench.figures` regenerates the data behind every figure of
the paper; :mod:`repro.bench.tables` renders the series as aligned ASCII
tables (the textual equivalent of the paper's plots). The *shape*
properties are checked by the tests DESIGN.md §4 lists.
"""

from repro.bench.sweep import Series, SeriesPoint, FigureData
from repro.bench.figures import (
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
    "fig1_fpp",
    "fig2_shared",
    "lustre_contrast",
    "render_figure",
    "FULL_NODE_COUNTS",
    "QUICK_NODE_COUNTS",
]
