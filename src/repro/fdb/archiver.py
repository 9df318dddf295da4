"""The archive pipeline: model-output bursts into the field database.

An NWP model emits fields in bursts — every output step, every rank
hands the archiver a batch of packed grids. The archiver's job shape is
fixed by that producer: keep a bounded number of field writes in flight
(the libdaos event-queue path), index each field as it lands, and offer
a *flush landmark* — a named durability point recorded only after every
preceding field is safely stored and indexed, which is what downstream
product generation polls before trusting a forecast cycle.

``sync=True`` degenerates to the blocking one-field-at-a-time sequence
(the contrast leg of the async-vs-sync sweeps); otherwise writes pipeline
through one persistent :class:`~repro.daos.eq.EventQueue` of the given
depth.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence, Tuple

from repro.daos.api import Event, EventQueue, PatternPayload, reap
from repro.fdb.index import FdbIndex
from repro.fdb.mapping import FdbContext, FieldMapping
from repro.fdb.schema import FieldKey

#: span names the per-layer breakdown roots at
ARCHIVE_SPAN = "fdb.archive"


def _metric(stem: str, backend: str, phase: str) -> str:
    return f"{stem}{{backend={backend},phase={phase}}}"


class Archiver:
    """Write-burst pipeline over one mapping + index pair."""

    def __init__(
        self,
        ctx: FdbContext,
        mapping: FieldMapping,
        index: FdbIndex,
        depth: Optional[int] = 8,
        sync: bool = False,
    ):
        self.ctx = ctx
        self.mapping = mapping
        self.index = index
        self.depth = depth
        self.sync = sync
        #: per-field service latencies (simulated seconds), archive order
        self.latencies: List[float] = []
        self.fields = 0
        self.bytes = 0
        self.landmarks: List[dict] = []
        self._eq: Optional[EventQueue] = None
        #: failed events reaped before the next flush, completion order
        self._failed: List[Event] = []
        self._span = None

    # ------------------------------------------------------------- setup
    def setup(self, keys: Sequence[FieldKey]) -> Generator:
        """Task helper: create shared objects and pre-build directory
        trees sequentially, so pipelined field tasks never race on
        namespace creation."""
        yield from self.mapping.setup(self.ctx)
        yield from self.index.setup(self.ctx)
        yield from self.mapping.prepare(self.ctx, keys)
        yield from self.index.prepare(self.ctx, keys)
        return None

    # ------------------------------------------------------------- archive
    def archive(self, keys: Sequence[FieldKey], nbytes: int) -> Generator:
        """Task helper: store one burst of fields (``nbytes`` each).

        Async mode returns with fields still in flight — only
        :meth:`flush` guarantees durability. Completions are reaped as it
        submits; only failures are kept, for :meth:`flush` to raise."""
        tracer = self.ctx.sim.tracer
        if tracer is not None and self._span is None:
            self._span = tracer.begin(
                ARCHIVE_SPAN, "fdb",
                attrs={"backend": self.mapping.name, "sync": self.sync},
            )
        if self.sync:
            for key in keys:
                yield from self._store(key, nbytes)
            return None
        if self._eq is None:
            self._eq = EventQueue(
                self.ctx.sim, depth=self.depth, name="fdb-archive"
            )
        for key in keys:
            yield from self._eq.submit(
                self._store(key, nbytes), name=key.canonical
            )
            done = self._eq.try_reap()
            self._failed += [ev for ev in done if ev.error is not None]
        return None

    def _store(self, key: FieldKey, nbytes: int) -> Generator:
        sim = self.ctx.sim
        start = sim.now
        self._gauge(+1)
        try:
            payload = PatternPayload(seed=key.seed, origin=0, nbytes=nbytes)
            location = yield from self.mapping.write(self.ctx, key, payload)
            entry = {"loc": location, "nbytes": nbytes}
            yield from self.index.insert(self.ctx, key, entry)
        finally:
            self._gauge(-1)
        elapsed = sim.now - start
        self.latencies.append(elapsed)
        self.fields += 1
        self.bytes += nbytes
        self._account(nbytes, elapsed)
        return nbytes

    def _gauge(self, delta: int) -> None:
        metrics = self.ctx.sim.metrics
        if metrics is not None:
            metrics.gauge(f"fdb.inflight{{backend={self.mapping.name}}}").add(
                self.ctx.sim.now, delta
            )

    def _account(self, nbytes: int, elapsed: float) -> None:
        metrics = self.ctx.sim.metrics
        if metrics is None:
            return
        backend = self.mapping.name
        metrics.incr(_metric("fdb.fields", backend, "archive"))
        metrics.incr(_metric("fdb.bytes", backend, "archive"), nbytes)
        metrics.observe(_metric("fdb.field.latency", backend, "archive"),
                        elapsed)

    # ------------------------------------------------------------- flush
    def flush(self, name: str) -> Generator:
        """Task helper: wait for every in-flight field, then persist the
        named landmark. Returns the landmark record."""
        if self._eq is not None:
            failed, self._failed = self._failed, []
            reap(failed + (yield from self._eq.drain()))
        record = {
            "name": name,
            "fields": self.fields,
            "bytes": self.bytes,
            "time": self.ctx.sim.now,
        }
        yield from self.index.landmark(self.ctx, name, record)
        self.landmarks.append(record)
        tracer = self.ctx.sim.tracer
        if tracer is not None and self._span is not None:
            tracer.end(self._span, fields=self.fields)
            self._span = None
        return record

    def close(self) -> Generator:
        """Task helper: tear down the pipeline queue."""
        if self._eq is not None:
            yield from self._eq.close()
            self._eq = None
        return None
