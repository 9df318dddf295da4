"""IOR result records and reporting."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

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
    start: float  # simulated time of the synchronized start
    seconds: float
    nbytes: int
    verify_errors: int = 0
    #: per-rank seconds spent exclusively in each stack layer (populated
    #: when the cluster runs with tracing; see repro.obs.breakdown)
    layer_seconds: Optional[Dict[str, float]] = field(init=False, default=None)

    @property
    def bandwidth(self) -> float:
        return self.nbytes / self.seconds if self.seconds > 0 else 0.0


@dataclass
class IorResult:
    """The full outcome of one IOR invocation."""

    params: IorParams
    nprocs: int
    client_nodes: int
    phases: List[PhaseResult] = field(init=False, default_factory=list)
    #: per-rank latency percentiles (populated when metrics are enabled)
    latency: List[LatencySummary] = field(init=False, default_factory=list)
    #: the run's TimeSeriesStore (populated when the timeline scraper is
    #: enabled; see repro.obs.timeline)
    timeline: Optional[object] = field(init=False, default=None)

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
        """An IOR-flavoured results block over the ops ``params`` asks for."""
        ops = {op for op in ("write", "read") if getattr(self.params, op)}
        phases = [p for p in self.phases if p.op in ops]
        lines = [
            f"IOR (simulated): {self.params.cli()}",
            f"clients: {self.client_nodes} nodes x "
            f"{self.nprocs // max(1, self.client_nodes)} ppn = "
            f"{self.nprocs} procs; "
            f"aggregate {fmt_size(self.params.total_bytes(self.nprocs))}",
        ]
        for phase in phases:
            lines.append(
                f"  {phase.op:5s} rep {phase.repetition}: "
                f"{fmt_bw(phase.bandwidth)} in {fmt_time(phase.seconds)}"
                + (f"  VERIFY ERRORS: {phase.verify_errors}"
                   if phase.verify_errors else "")
            )
            if phase.layer_seconds:
                lines.extend(self._breakdown_lines(phase))
        if "write" in ops and self._best("write"):
            lines.append(f"Max Write: {fmt_bw(self.max_write_bw)}")
        if "read" in ops and self._best("read"):
            lines.append(f"Max Read:  {fmt_bw(self.max_read_bw)}")
        lines.extend(self._latency_lines(ops))
        lines.extend(self._timeline_lines(phases))
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

    def _latency_lines(self, ops: Set[str]) -> List[str]:
        latency = [entry for entry in self.latency if entry.op in ops]
        if not latency:
            return []
        lines = [
            "per-rank op latency:",
            "  op    rank  count        mean         p50         p95         p99",
        ]
        shown = 0
        for entry in latency:
            if shown >= _MAX_RANK_ROWS:
                lines.append(
                    f"  ... {len(latency) - shown} more ranks elided"
                )
                break
            lines.append(
                f"  {entry.op:5s} {entry.rank:4d} {entry.count:6d} "
                f"{fmt_time(entry.mean):>11s} {fmt_time(entry.p50):>11s} "
                f"{fmt_time(entry.p95):>11s} {fmt_time(entry.p99):>11s}"
            )
            shown += 1
        return lines

    def _timeline_lines(self, phases: List[PhaseResult]) -> List[str]:
        """Sparklines over the run's scrape windows, or, when a phase goes
        unreported (``-r``'s write pass), over only the windows that
        overlap a reported phase."""
        store = self.timeline
        if store is None or not store.series:
            return []
        ticks = None
        if len(phases) == len(self.phases):
            step = (store.end - store.origin) / SPARK_COLS
            times = [store.origin + (col + 1) * step
                     for col in range(SPARK_COLS)]
        else:
            ticks = phase_windows(store, phases)
            n = len(ticks)
            shown = ticks if n <= SPARK_COLS else [
                ticks[(col + 1) * n // SPARK_COLS - 1]
                for col in range(SPARK_COLS)]
            # half a window of slack: a scrape's clock is a sum of delays
            times = [store.origin + (k + 0.5) * store.interval for k in shown]
        lines = [
            f"timeline ({store.n_windows if ticks is None else len(ticks)} "
            f"windows @ {fmt_time(store.interval)}):"
        ]
        rows = [("fabric.xfer.bytes:rate", "wire B/s", fmt_bw)] + [
            (f"ior.{op}.latency:p99", f"{op} p99", fmt_time)
            for op in ("write", "read") if any(p.op == op for p in phases)
        ]
        for name, label, fmt in rows:
            series = store.series.get(name)
            if series is None:
                continue
            series.finalize()
            if not series.points or not times:
                continue
            values = resample(series, times)
            lines.append(
                f"  {label:<9s} |{sparkline(values)}| peak {fmt(max(values))}"
            )
        for breach in store.breaches:
            k = window_index(store, breach.time)
            if ticks is None or k in ticks:
                lines.append(
                    f"  SLO BREACH at t={fmt_time(breach.time)}: {breach.rule}"
                )
        return lines


def phase_windows(store, phases: List[PhaseResult]) -> List[int]:
    """Indices ``k`` of the scrape windows ``(t[k-1], t[k]]``, ``t[k] =
    origin + k * interval``, that overlap a phase and were scraped: the
    scraper ticks on that grid and never parks while a phase runs. The
    run's last window may close off the grid, at ``store.end``."""
    last = window_index(store, store.end)
    ticks: Set[int] = set()
    for phase in phases:
        lo = (phase.start - store.origin) / store.interval
        hi = lo + phase.seconds / store.interval
        ticks.update(range(int(lo + 1e-9) + 1,
                           min(math.ceil(hi - 1e-9), last) + 1))
    return sorted(ticks)


def window_index(store, t: float) -> int:
    """Index ``k`` of the scrape window ``(t[k-1], t[k]]`` holding ``t``."""
    return math.ceil((t - store.origin) / store.interval - 1e-9)


def resample(series, times: List[float]) -> List[float]:
    """A step-compressed series (any object with ``points``) at each of
    the ascending ``times``: its last point at or before each."""
    points = series.points
    values: List[float] = []
    idx = 0
    current = 0.0
    for t in times:
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
