"""The retrieve pipeline: key predicates back out of the field database.

Product generation speaks predicates, not paths: "every step of t2m from
Monday's run". The retriever expands a
:class:`~repro.fdb.schema.FieldQuery` against the index (ordered KV
prefix scan, or a pruned directory walk on the tree contrast), then
scatter-reads the matching fields — per field an index lookup for the
location record and a mapping read for the bytes, pipelined through a
per-query event queue in async mode.

Every payload read back is verified against the field's deterministic
content pattern (``PatternPayload(key.seed, 0, nbytes)``) unless
``verify=False`` — payload equality is O(1), so verification costs
nothing simulated or real.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.daos.api import PatternPayload
from repro.errors import DerDataLoss
from repro.fdb.pipeline import FieldPipeline
from repro.fdb.schema import FieldKey, FieldQuery

#: span name the per-layer breakdown roots at
RETRIEVE_SPAN = "fdb.retrieve"


class Retriever(FieldPipeline):
    """Predicate-expansion scatter-read pipeline."""

    phase = "retrieve"
    span = RETRIEVE_SPAN

    def __init__(self, sim, mapping, index, depth: Optional[int] = 8,
                 sync: bool = False, verify: bool = True):
        super().__init__(sim, mapping, index, depth, sync)
        self.verify = verify

    def retrieve(self, query: FieldQuery) -> Generator:
        """Task helper: expand ``query`` and fetch every matching field.

        Returns the matched keys in canonical order. Raises
        :class:`~repro.errors.DerDataLoss` if any payload read back does
        not equal its field's expected pattern."""
        span = self._begin()
        try:
            keys = yield from self.index.scan(query)
            yield from self._each(keys, self._fetch)
            try:
                yield from self._settle()
            finally:
                yield from self.close()
        finally:
            self._end(span)
        return keys

    def _fetch(self, key: FieldKey) -> Generator:
        start = self.sim.now
        entry = yield from self.index.lookup(key)
        nbytes = entry["nbytes"]
        payload = yield from self.mapping.read(key, entry["loc"], nbytes)
        if self.verify:
            expected = PatternPayload(seed=key.seed, origin=0, nbytes=nbytes)
            if payload != expected:
                raise DerDataLoss(
                    f"field {key.canonical} read back wrong content "
                    f"({payload!r} != {expected!r})"
                )
        self._done(start, nbytes)
        return nbytes
