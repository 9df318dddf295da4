"""Declarative SLO and stall rules evaluated at timeline-scrape time.

Rule grammar (DESIGN.md §10.1), one rule per string:

* Threshold rule::

      <metric> <stat> <op> <number> over <N> windows

  e.g. ``ior.write.latency p99 < 2e-3 over 3 windows``. ``stat`` is one
  of ``rate`` (counter per-second rate), ``value``/``mean`` (gauge),
  ``count``/``mean``/``p50``/``p95``/``p99``/``p999`` (histogram, per
  window); ``op`` is ``<``, ``<=``, ``>`` or ``>=``. The rule states an
  SLO that must hold; a window *violates* it when the stat is defined
  and the comparison fails. ``over N windows`` means N *consecutive*
  violating windows breach the rule — an undefined stat (no samples in
  the window, unknown metric) resets the streak.

* Stall rule::

      stall <progress-counter> while <guard-gauge> [over <N> windows]

  e.g. ``stall fabric.xfer.bytes while client.io.inflight over 2
  windows``. A window violates the rule when the progress counter's
  delta is zero while the guard gauge's window mean is positive — work
  is in flight but nothing is moving. This catches the silent-hang
  class the chaos tests otherwise detect only by iteration-limit
  timeout.

Breaches are emitted once per streak, on the transition to the N-th
consecutive violating window, and re-arm after any clean window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.metrics import canonical_metric_name

THRESHOLD_STATS = (
    "rate", "value", "mean", "count", "p50", "p95", "p99", "p999",
)

_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

#: Consecutive windows required when a stall rule omits ``over N windows``.
DEFAULT_STALL_WINDOWS = 2


@dataclass(frozen=True)
class SloRule:
    """``<metric> <stat> <op> <threshold> over <windows> windows``."""

    metric: str
    stat: str
    op: str
    threshold: float
    windows: int
    text: str

    kind = "threshold"

    def violated(self, value: Optional[float]) -> bool:
        """True when the window stat is defined and the SLO fails."""
        if value is None:
            return False
        return not _OPS[self.op](value, self.threshold)


@dataclass(frozen=True)
class StallRule:
    """``stall <progress-counter> while <guard-gauge> over N windows``."""

    progress: str
    guard: str
    windows: int
    text: str

    kind = "stall"

    def violated(self, progress_delta: Optional[float],
                 guard_mean: Optional[float]) -> bool:
        if progress_delta is None or guard_mean is None:
            return False
        return progress_delta == 0.0 and guard_mean > 0.0


@dataclass
class SloBreach:
    """Typed breach event; lands in the timeline store and the trace."""

    time: float
    rule: str
    kind: str
    metric: str
    stat: str
    windows: int
    value: Optional[float] = None
    threshold: Optional[float] = None
    extra: Dict[str, Any] = field(init=False, default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "time": self.time,
            "rule": self.rule,
            "kind": self.kind,
            "metric": self.metric,
            "stat": self.stat,
            "windows": self.windows,
        }
        if self.value is not None:
            doc["value"] = self.value
        if self.threshold is not None:
            doc["threshold"] = self.threshold
        doc.update(self.extra)
        return doc


def parse_slo(text: str):
    """Parse one rule string into an :class:`SloRule` or :class:`StallRule`.

    Each metric name it holds is canonicalised (label keys sorted), so a
    rule binds to the series it names whatever order its labels are
    written in; a malformed name is a ``ValueError``."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty SLO rule")

    if tokens[0] == "stall":
        # stall <counter> while <gauge> [over <N> windows]
        if len(tokens) not in (4, 7) or (len(tokens) > 2
                                         and tokens[2] != "while"):
            raise ValueError(
                f"bad stall rule {text!r}: expected "
                f"'stall <counter> while <gauge> [over N windows]'"
            )
        windows = DEFAULT_STALL_WINDOWS
        if len(tokens) == 7:
            if tokens[4] != "over" or tokens[6] != "windows":
                raise ValueError(f"bad stall rule {text!r}")
            windows = _parse_windows(tokens[5], text)
        return StallRule(progress=_metric(tokens[1], text),
                         guard=_metric(tokens[3], text),
                         windows=windows, text=text)

    # <metric> <stat> <op> <number> over <N> windows
    if len(tokens) != 7 or tokens[4] != "over" or tokens[6] != "windows":
        raise ValueError(
            f"bad SLO rule {text!r}: expected "
            f"'<metric> <stat> <op> <number> over <N> windows'"
        )
    metric, stat, op, threshold_s = tokens[:4]
    if stat not in THRESHOLD_STATS:
        raise ValueError(
            f"bad SLO rule {text!r}: stat {stat!r} not in {THRESHOLD_STATS}"
        )
    if op not in _OPS:
        raise ValueError(f"bad SLO rule {text!r}: op {op!r} not in <,<=,>,>=")
    try:
        threshold = float(threshold_s)
    except ValueError:
        raise ValueError(
            f"bad SLO rule {text!r}: threshold {threshold_s!r} is not a number"
        ) from None
    windows = _parse_windows(tokens[5], text)
    return SloRule(metric=_metric(metric, text), stat=stat, op=op,
                   threshold=threshold, windows=windows, text=text)


def _metric(name: str, text: str) -> str:
    try:
        return canonical_metric_name(name)
    except ValueError as exc:
        raise ValueError(f"bad SLO rule {text!r}: {exc}") from None


def _parse_windows(token: str, text: str) -> int:
    try:
        n = int(token)
    except ValueError:
        raise ValueError(
            f"bad SLO rule {text!r}: window count {token!r} is not an integer"
        ) from None
    if n < 1:
        raise ValueError(f"bad SLO rule {text!r}: window count must be >= 1")
    return n


def default_rules() -> List[object]:
    """The always-on watchdog: breach when transfers are in flight but
    no bytes complete for :data:`DEFAULT_STALL_WINDOWS` windows."""
    return [parse_slo(
        f"stall fabric.xfer.bytes while client.io.inflight "
        f"over {DEFAULT_STALL_WINDOWS} windows"
    )]
