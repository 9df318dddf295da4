"""Deterministic sim-time token bucket.

:class:`TokenBucket` is the classic *issue-rate* discipline: tokens
refill at ``rate`` per simulated second up to a ``burst`` ceiling, and a
consumer acquires ``n`` tokens before issuing ``n`` units of work. It
suits request-scoped traffic (per-tenant byte budgets in
:mod:`repro.tenants`), where flows are too short for a standing rate
cap; long-lived rebuild migrations take one instead
(:func:`repro.rebuild.scheduler.rebuild_cap`).

The bucket runs on *debt accounting*: :meth:`TokenBucket.acquire`
always deducts immediately, and when the level goes negative the
acquirer sleeps exactly ``deficit / rate`` simulated seconds — the
time at which the refill pays the debt back. Concurrent acquirers
therefore serialise in deduction order (the simulator's deterministic
event order), long-run issue rate is bounded by ``rate``, and no RNG
is involved anywhere, so a bucketed run is a pure function of the
seed.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.errors import DerInval


class TokenBucket:
    """Deterministic token bucket over simulated time.

    ``rate`` tokens accrue per simulated second up to ``burst``; the
    bucket starts full. ``rate=None`` disables limiting (every acquire
    is free), so call sites can keep one code path for QoS on/off.
    """

    __slots__ = ("sim", "rate", "burst", "_level", "_t")

    def __init__(self, sim, rate: Optional[float], burst: float):
        if rate is not None and rate <= 0:
            raise DerInval(f"token rate must be positive, got {rate}")
        if burst <= 0:
            raise DerInval(f"token burst must be positive, got {burst}")
        self.sim = sim
        self.rate = None if rate is None else float(rate)
        self.burst = float(burst)
        self._level = self.burst
        self._t = sim.now

    # ----------------------------------------------------------- accounting
    def _refill(self, now: float) -> None:
        if now > self._t:
            self._level = min(
                self.burst, self._level + (now - self._t) * self.rate
            )
            self._t = now

    @property
    def level(self) -> float:
        """Tokens available right now (negative while in debt)."""
        if self.rate is None:
            return self.burst
        self._refill(self.sim.now)
        return self._level

    def acquire(self, n: float) -> Generator:
        """Task helper: take ``n`` tokens, sleeping until the refill
        covers any deficit. FIFO in deduction order; returns the
        simulated seconds waited."""
        if self.rate is None:
            return 0.0
        if n < 0:
            raise DerInval(f"cannot acquire {n} tokens")
        self._refill(self.sim.now)
        self._level -= n
        if self._level >= 0:
            return 0.0
        wait = -self._level / self.rate
        yield wait
        return wait

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<TokenBucket rate={self.rate} burst={self.burst} "
            f"level={self._level:.1f}>"
        )
