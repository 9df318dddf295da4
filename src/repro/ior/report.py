"""IOR result records and reporting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.ior.config import IorParams
from repro.units import fmt_bw, fmt_size, fmt_time

#: Per-rank rows printed in the latency table before eliding the rest.
_MAX_RANK_ROWS = 16

#: Max columns of a terminal timeline sparkline (downsampled above this).
SPARK_COLS = 60

_SPARK_CHARS = " ▁▂▃▄▅▆▇█"


@dataclass
class LatencySummary:
    """Per-rank per-op latency percentiles (from the metrics registry)."""

    op: str
    rank: int
    count: int
    mean: float
    p50: float
    p95: float
    p99: float


@dataclass
class PhaseResult:
    """One timed phase of one repetition."""

    op: str  # "write" | "read"
    repetition: int
    seconds: float
    nbytes: int
    verify_errors: int = 0
    #: per-rank seconds spent exclusively in each stack layer (populated
    #: when the cluster runs with tracing; see repro.obs.breakdown)
    layer_seconds: Optional[Dict[str, float]] = None

    @property
    def bandwidth(self) -> float:
        return self.nbytes / self.seconds if self.seconds > 0 else 0.0


@dataclass
class IorResult:
    """The full outcome of one IOR invocation."""

    params: IorParams
    nprocs: int
    client_nodes: int
    phases: List[PhaseResult] = field(default_factory=list)
    #: per-rank latency percentiles (populated when metrics are enabled)
    latency: List[LatencySummary] = field(default_factory=list)
    #: the run's TimeSeriesStore (populated when the timeline scraper is
    #: enabled; see repro.obs.timeline)
    timeline: Optional[object] = None

    def _best(self, op: str) -> Optional[PhaseResult]:
        candidates = [p for p in self.phases if p.op == op]
        if not candidates:
            return None
        return max(candidates, key=lambda p: p.bandwidth)

    @property
    def max_write_bw(self) -> float:
        best = self._best("write")
        return best.bandwidth if best else 0.0

    @property
    def max_read_bw(self) -> float:
        best = self._best("read")
        return best.bandwidth if best else 0.0

    @property
    def verify_errors(self) -> int:
        return sum(p.verify_errors for p in self.phases)

    def summary(self) -> str:
        """An IOR-flavoured results block."""
        lines = [
            f"IOR (simulated): {self.params.cli()}",
            f"clients: {self.client_nodes} nodes x "
            f"{self.nprocs // max(1, self.client_nodes)} ppn = "
            f"{self.nprocs} procs; "
            f"aggregate {fmt_size(self.params.total_bytes(self.nprocs))}",
        ]
        for phase in self.phases:
            lines.append(
                f"  {phase.op:5s} rep {phase.repetition}: "
                f"{fmt_bw(phase.bandwidth)} in {fmt_time(phase.seconds)}"
                + (f"  VERIFY ERRORS: {phase.verify_errors}"
                   if phase.verify_errors else "")
            )
            if phase.layer_seconds:
                lines.extend(self._breakdown_lines(phase))
        if self._best("write"):
            lines.append(f"Max Write: {fmt_bw(self.max_write_bw)}")
        if self._best("read"):
            lines.append(f"Max Read:  {fmt_bw(self.max_read_bw)}")
        lines.extend(self._latency_lines())
        lines.extend(self._timeline_lines())
        return "\n".join(lines)

    @staticmethod
    def _breakdown_lines(phase: PhaseResult) -> List[str]:
        lines = ["    per-layer breakdown (per-rank seconds):"]
        wall = phase.seconds
        for layer, seconds in sorted(
            phase.layer_seconds.items(), key=lambda kv: -kv[1]
        ):
            share = seconds / wall if wall > 0 else 0.0
            lines.append(
                f"      {layer:<14s} {fmt_time(seconds):>10s}  {share:6.1%}"
            )
        return lines

    def _latency_lines(self) -> List[str]:
        if not self.latency:
            return []
        lines = [
            "per-rank op latency:",
            "  op    rank  count        mean         p50         p95         p99",
        ]
        shown = 0
        for entry in self.latency:
            if shown >= _MAX_RANK_ROWS:
                lines.append(
                    f"  ... {len(self.latency) - shown} more ranks elided"
                )
                break
            lines.append(
                f"  {entry.op:5s} {entry.rank:4d} {entry.count:6d} "
                f"{fmt_time(entry.mean):>11s} {fmt_time(entry.p50):>11s} "
                f"{fmt_time(entry.p95):>11s} {fmt_time(entry.p99):>11s}"
            )
            shown += 1
        return lines

    def _timeline_lines(self) -> List[str]:
        store = self.timeline
        if store is None or not store.series:
            return []
        lines = [
            f"timeline ({store.n_windows} windows @ "
            f"{fmt_time(store.interval)}):"
        ]
        shown = (
            ("fabric.xfer.bytes:rate", "wire B/s", fmt_bw),
            ("ior.write.latency:p99", "write p99", fmt_time),
            ("ior.read.latency:p99", "read p99", fmt_time),
        )
        for name, label, fmt in shown:
            series = store.series.get(name)
            if series is None:
                continue
            series.finalize()
            if not series.points:
                continue
            values = resample(series, store.origin, store.end, SPARK_COLS)
            peak = max(values)
            lines.append(
                f"  {label:<9s} |{sparkline(values)}| peak {fmt(peak)}"
            )
        for breach in store.breaches:
            lines.append(
                f"  SLO BREACH at t={fmt_time(breach.time)}: {breach.rule}"
            )
        return lines


def resample(series, start: float, end: float, cols: int) -> List[float]:
    """Step-wise resample of a compressed series onto ``cols`` columns.

    ``series`` is any object with step-compressed ``points``.
    """
    if end <= start:
        return [v for _t, v in series.points[:cols]] or [0.0]
    step = (end - start) / cols
    points = series.points
    values: List[float] = []
    idx = 0
    current = 0.0
    for col in range(cols):
        t = start + (col + 1) * step
        while idx < len(points) and points[idx][0] <= t:
            current = points[idx][1]
            idx += 1
        values.append(current)
    return values


def sparkline(values: List[float]) -> str:
    """Unicode block sparkline scaled to the peak value."""
    peak = max(values)
    if peak <= 0:
        return " " * len(values)
    ticks = len(_SPARK_CHARS) - 1
    return "".join(
        _SPARK_CHARS[min(ticks, int(round(v / peak * ticks)))]
        for v in values
    )
