"""Series/figure data containers for benchmark sweeps."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class SeriesPoint:
    x: int  # client nodes
    value: float  # bytes/s


@dataclass
class Series:
    label: str
    points: List[SeriesPoint] = field(default_factory=list, init=False)

    def add(self, x: int, value: float) -> None:
        self.points.append(SeriesPoint(x, value))

    def at(self, x: int) -> Optional[float]:
        for point in self.points:
            if point.x == x:
                return point.value
        return None


@dataclass
class FigureData:
    figure_id: str
    title: str
    xlabel: str
    ylabel: str
    series: List[Series] = field(default_factory=list, init=False)
