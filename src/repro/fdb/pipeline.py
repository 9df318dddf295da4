"""What the archive and retrieve pipelines share.

Both run one field operation per key over a mapping + index pair, in
one loop over a queue reaped after every submit, so host memory follows
the fields in flight: an :class:`~repro.daos.eq.EventQueue` of the given
depth, or its blocking twin :class:`~repro.daos.eq.Inline` when
``sync=True`` (the contrast leg of the async-vs-sync sweeps). Both keep
the same per-field bookkeeping — ``latencies``, ``fields``, ``bytes``
and the ``fdb.fields/bytes/field.latency{backend=,phase=}`` metrics.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional, Sequence

from repro.daos.api import Event, EventQueue, Inline, reap
from repro.fdb.schema import FieldKey


class FieldPipeline:
    """Per-field loop and accounting over one mapping + index pair."""

    #: ``phase=`` label, span name and queue name suffix
    phase = "?"
    span = "?"

    def __init__(self, sim, mapping, index, depth: Optional[int] = 8,
                 sync: bool = False):
        self.sim = sim
        self.mapping = mapping
        self.index = index
        self.depth = depth
        self.sync = sync
        #: per-field service latencies (simulated seconds), completion order
        self.latencies: List[float] = []
        self.fields = 0
        self.bytes = 0
        self._eq = None
        #: failed events reaped before the next :meth:`_settle`
        self._failed: List[Event] = []

    def _begin(self):
        tracer = self.sim.tracer
        if tracer is None:
            return None
        return tracer.begin(
            self.span, "fdb",
            attrs={"backend": self.mapping.name, "sync": self.sync},
        )

    def _end(self, span) -> None:
        if span is not None:
            self.sim.tracer.end(span, fields=self.fields)

    def _each(self, keys: Sequence[FieldKey], op: Callable[..., Generator],
              *args) -> Generator:
        """Task helper: run ``op(key, *args)`` for every key. Queued
        operations may still be in flight on return; only
        :meth:`_settle` waits."""
        if self._eq is None:
            self._eq = Inline(self.sim) if self.sync else EventQueue(
                self.sim, depth=self.depth, name=f"fdb-{self.phase}"
            )
        for key in keys:
            yield from self._eq.submit(op(key, *args), name=key.canonical)
            done = self._eq.try_reap()
            self._failed += [ev for ev in done if ev.error is not None]
        return None

    def _settle(self) -> Generator:
        """Task helper: wait for every queued operation, then raise the
        first failure, in completion order."""
        if self._eq is not None:
            failed, self._failed = self._failed, []
            reap(failed + (yield from self._eq.drain()))
        return None

    def _done(self, start: float, nbytes: int) -> None:
        elapsed = self.sim.now - start
        self.latencies.append(elapsed)
        self.fields += 1
        self.bytes += nbytes
        metrics = self.sim.metrics
        if metrics is None:
            return
        labels = f"{{backend={self.mapping.name},phase={self.phase}}}"
        metrics.incr("fdb.fields" + labels)
        metrics.incr("fdb.bytes" + labels, nbytes)
        metrics.observe("fdb.field.latency" + labels, elapsed)

    def close(self) -> Generator:
        """Task helper: tear down the pipeline queue."""
        if self._eq is not None:
            yield from self._eq.close()
            self._eq = None
        return None
