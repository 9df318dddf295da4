"""Open-loop arrival processes: seeded Poisson and trace replays.

Open-loop means arrival times are fixed *before* the run and do not
react to completions — the load a storage service actually faces, and
the regime where tail latency and admission control matter (a
closed-loop generator throttles itself precisely when the system is
slowest, hiding the tail; see the open-vs-closed serving literature).

Both processes yield **relative** times (seconds after serving start)
per tenant, precomputed eagerly so the draw order is a pure function of
the seed and tenant id — task interleaving during the run can never
perturb them.

* :class:`PoissonArrivals` — exponential inter-arrival gaps at the
  tenant's ``rate``, drawn from the tenant's own named
  :class:`~repro.sim.rng.RngStreams` stream
  (``tenants.arrivals:<id>``), so adding a tenant never changes another
  tenant's arrivals.
* :class:`TraceArrivals` — replay of an explicit ``(time, tenant_id)``
  schedule, loadable from a JSON trace file.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Sequence, Tuple

from repro.errors import DerInval
from repro.sim.rng import RngStreams
from repro.tenants.spec import TenantSpec

#: Stream-family prefix for arrival draws.
STREAM_PREFIX = "tenants.arrivals"


class PoissonArrivals:
    """Seeded Poisson process, one independent stream per tenant."""

    def __init__(self, rng: RngStreams):
        self.rng = rng

    def times_for(self, tenant: TenantSpec, horizon: float) -> List[float]:
        """Arrival times in ``[0, horizon)`` for ``tenant``."""
        stream = self.rng.stream(f"{STREAM_PREFIX}:{tenant.id}")
        times: List[float] = []
        t = float(stream.exponential(1.0 / tenant.rate))
        while t < horizon:
            times.append(t)
            t += float(stream.exponential(1.0 / tenant.rate))
        return times


class TraceArrivals:
    """Replay of an explicit arrival schedule.

    ``entries`` are ``(time, tenant_id)`` pairs with times relative to
    serving start; unknown tenant ids in the trace are ignored by
    :meth:`times_for` (the dispatcher only asks for its own fleet).
    """

    def __init__(self, entries: Sequence[Tuple[float, str]]):
        cleaned: List[Tuple[float, str]] = []
        for t, tenant_id in entries:
            if not math.isfinite(t):
                raise DerInval(f"trace arrival at non-finite time {t}")
            if t < 0:
                raise DerInval(f"trace arrival at negative time {t}")
            cleaned.append((float(t), str(tenant_id)))
        self.entries = sorted(cleaned)
        self._by_tenant: Dict[str, List[float]] = {}
        for t, tenant_id in self.entries:
            self._by_tenant.setdefault(tenant_id, []).append(t)

    @classmethod
    def from_file(cls, path: str) -> "TraceArrivals":
        """Load a JSON trace: either ``[[t, "tenant"], ...]`` pairs or
        ``[{"t": ..., "tenant": ...}, ...]`` objects."""
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, list):
            raise DerInval(f"trace {path}: expected a JSON array")
        entries: List[Tuple[float, str]] = []
        for item in doc:
            if isinstance(item, dict):
                try:
                    entries.append((float(item["t"]), str(item["tenant"])))
                except KeyError as missing:
                    raise DerInval(
                        f"trace {path}: entry {item!r} missing {missing}"
                    ) from None
            elif isinstance(item, (list, tuple)) and len(item) == 2:
                entries.append((float(item[0]), str(item[1])))
            else:
                raise DerInval(f"trace {path}: malformed entry {item!r}")
        return cls(entries)

    def times_for(self, tenant: TenantSpec, horizon: float) -> List[float]:
        return [t for t in self._by_tenant.get(tenant.id, ()) if t < horizon]
