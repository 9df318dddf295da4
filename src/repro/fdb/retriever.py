"""The retrieve pipeline: key predicates back out of the field database.

Product generation speaks predicates, not paths: "every step of t2m from
Monday's run". The retriever expands a
:class:`~repro.fdb.schema.FieldQuery` against the index (ordered KV
prefix scan, or a pruned directory walk on the tree contrast), then
scatter-reads the matching fields — per field an index lookup for the
location record and a mapping read for the bytes, pipelined through an
event queue in async mode.

Every payload read back is verified against the field's deterministic
content pattern (``PatternPayload(key.seed, 0, nbytes)``) unless
``verify=False`` — payload equality is O(1), so verification costs
nothing simulated or real.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Tuple

from repro.daos.api import EventQueue, PatternPayload, reap
from repro.errors import DerDataLoss
from repro.fdb.index import FdbIndex
from repro.fdb.mapping import FdbContext, FieldMapping
from repro.fdb.schema import FieldKey, FieldQuery

#: span name the per-layer breakdown roots at
RETRIEVE_SPAN = "fdb.retrieve"


class Retriever:
    """Predicate-expansion scatter-read pipeline."""

    def __init__(
        self,
        ctx: FdbContext,
        mapping: FieldMapping,
        index: FdbIndex,
        depth: Optional[int] = 8,
        sync: bool = False,
        verify: bool = True,
    ):
        self.ctx = ctx
        self.mapping = mapping
        self.index = index
        self.depth = depth
        self.sync = sync
        self.verify = verify
        #: per-field service latencies (simulated seconds), reap order
        self.latencies: List[float] = []
        self.fields = 0
        self.bytes = 0

    def retrieve(self, query: FieldQuery) -> Generator:
        """Task helper: expand ``query`` and fetch every matching field.

        Returns the matched keys in canonical order. Raises
        :class:`~repro.errors.DerDataLoss` if any payload read back does
        not equal its field's expected pattern."""
        tracer = self.ctx.sim.tracer
        span = None
        if tracer is not None:
            span = tracer.begin(
                RETRIEVE_SPAN, "fdb",
                attrs={"backend": self.mapping.name, "sync": self.sync},
            )
        try:
            keys = yield from self.index.scan(self.ctx, query)
            if self.sync:
                for key in keys:
                    yield from self._fetch(key)
            else:
                eq = EventQueue(
                    self.ctx.sim, depth=self.depth, name="fdb-retrieve"
                )
                for key in keys:
                    yield from eq.submit(self._fetch(key), name=key.canonical)
                reap((yield from eq.drain()))
                yield from eq.close()
        finally:
            if tracer is not None:
                tracer.end(span, fields=self.fields)
        return keys

    def _fetch(self, key: FieldKey) -> Generator:
        sim = self.ctx.sim
        start = sim.now
        entry = yield from self.index.lookup(self.ctx, key)
        nbytes = entry["nbytes"]
        payload = yield from self.mapping.read(
            self.ctx, key, entry["loc"], nbytes
        )
        if self.verify:
            expected = PatternPayload(seed=key.seed, origin=0, nbytes=nbytes)
            if payload != expected:
                raise DerDataLoss(
                    f"field {key.canonical} read back wrong content "
                    f"({payload!r} != {expected!r})"
                )
        elapsed = sim.now - start
        self.latencies.append(elapsed)
        self.fields += 1
        self.bytes += nbytes
        self._account(nbytes, elapsed)
        return nbytes

    def _account(self, nbytes: int, elapsed: float) -> None:
        metrics = self.ctx.sim.metrics
        if metrics is None:
            return
        backend = self.mapping.name
        metrics.incr(f"fdb.fields{{backend={backend},phase=retrieve}}")
        metrics.incr(f"fdb.bytes{{backend={backend},phase=retrieve}}", nbytes)
        metrics.observe(
            f"fdb.field.latency{{backend={backend},phase=retrieve}}", elapsed
        )
