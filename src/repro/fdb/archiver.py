"""The archive pipeline: model-output bursts into the field database.

An NWP model emits fields in bursts — every output step, every rank
hands the archiver a batch of packed grids. The archiver's job shape is
fixed by that producer: keep a bounded number of field writes in flight
(the libdaos event-queue path), index each field as it lands, and offer
a *flush landmark* — a named durability point recorded only after every
preceding field is safely stored and indexed, which is what downstream
product generation polls before trusting a forecast cycle.

``sync=True`` runs the blocking one-field-at-a-time sequence through the
queue's blocking twin; otherwise writes pipeline through one persistent
event queue of the given depth (:class:`~repro.fdb.pipeline.FieldPipeline`).
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence

from repro.daos.api import PatternPayload
from repro.fdb.pipeline import FieldPipeline
from repro.fdb.schema import FieldKey

#: span names the per-layer breakdown roots at
ARCHIVE_SPAN = "fdb.archive"


class Archiver(FieldPipeline):
    """Write-burst pipeline over one mapping + index pair."""

    phase = "archive"
    span = ARCHIVE_SPAN

    def __init__(self, sim, mapping, index, depth: Optional[int] = 8,
                 sync: bool = False):
        super().__init__(sim, mapping, index, depth, sync)
        self.landmarks: List[dict] = []
        self._span = None

    def setup(self, keys: Sequence[FieldKey]) -> Generator:
        """Task helper: pre-build directory trees sequentially, so
        pipelined field tasks never race on namespace creation."""
        yield from self.mapping.prepare(keys)
        yield from self.index.prepare(keys)
        return None

    def archive(self, keys: Sequence[FieldKey], nbytes: int) -> Generator:
        """Task helper: store one burst of fields (``nbytes`` each).

        Async mode returns with fields still in flight — only
        :meth:`flush` guarantees durability and raises a failed field."""
        if self._span is None:
            self._span = self._begin()
        yield from self._each(keys, self._store, nbytes)
        return None

    def _store(self, key: FieldKey, nbytes: int) -> Generator:
        start = self.sim.now
        self._gauge(+1)
        try:
            payload = PatternPayload(seed=key.seed, origin=0, nbytes=nbytes)
            location = yield from self.mapping.write(key, payload)
            entry = {"loc": location, "nbytes": nbytes}
            yield from self.index.insert(key, entry)
        finally:
            self._gauge(-1)
        self._done(start, nbytes)
        return nbytes

    def _gauge(self, delta: int) -> None:
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.gauge(f"fdb.inflight{{backend={self.mapping.name}}}").add(
                self.sim.now, delta
            )

    def flush(self, name: str) -> Generator:
        """Task helper: wait for every in-flight field, then persist the
        named landmark. Returns the landmark record."""
        yield from self._settle()
        record = {
            "name": name,
            "fields": self.fields,
            "bytes": self.bytes,
            "time": self.sim.now,
        }
        yield from self.index.landmark(name, record)
        self.landmarks.append(record)
        self._end(self._span)
        self._span = None
        return record
