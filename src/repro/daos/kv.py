"""The libdaos flat KV API (``daos_kv_*``).

A KV object maps string keys to values with no akey dimension — each key
is a dkey with a single fixed akey underneath, exactly how libdaos
implements it on top of the generic object layout.

Keys are validated against the same reserved characters as metric
labels (``,`` ``{`` ``}`` ``=``, see
:func:`repro.obs.metrics.format_metric_name`): KV keys routinely become
label values in per-key series and index entries, so the two layers must
agree on what a well-formed name is.

Enumeration is deterministic and ordered: :meth:`DaosKV.list` returns
one sorted page, :meth:`DaosKV.scan` iterates an arbitrarily large
keyspace in bounded pages (the index-scan primitive the FDB retriever
is built on).
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from repro.daos.objid import ObjId
from repro.daos.object import ObjectHandle
from repro.daos.oclass import ObjectClass
from repro.errors import DerInval, DerNonexist

_KV_AKEY = b"\x00kv"
_MISSING = object()

#: characters a KV key may not contain — identical to the metric-label
#: reservation so keys can always ride inside ``{k=v}`` label bodies
RESERVED_KEY_CHARS = ",{}="
#: keys one enumeration RPC returns at most
PAGE = 1024


def validate_key(key: str) -> None:
    """Raise :class:`~repro.errors.DerInval` on a malformed KV key."""
    if not isinstance(key, str) or not key:
        raise DerInval(f"KV key must be a non-empty string, got {key!r}")
    if any(ch in key for ch in RESERVED_KEY_CHARS):
        raise DerInval(
            f"KV key {key!r} contains a reserved character "
            f"(one of {RESERVED_KEY_CHARS!r})"
        )


def prefix_upper_bound(raw: bytes) -> Optional[bytes]:
    """Smallest byte string greater than every string prefixed by ``raw``.

    The carry walks over trailing ``0xFF`` bytes (``b"a\\xff"`` bounds at
    ``b"b"``); a prefix of only ``0xFF`` bytes has no finite bound and
    returns ``None`` (callers must then post-filter).
    """
    out = bytearray(raw)
    while out and out[-1] == 0xFF:
        out.pop()
    if not out:
        return None
    out[-1] += 1
    return bytes(out)


class DaosKV:
    """Open handle on a flat key-value object."""

    def __init__(self, obj: ObjectHandle):
        self.obj = obj

    @classmethod
    def create(cls, cont, oclass: Optional[ObjectClass] = None) -> Generator:
        """Task helper: allocate a fresh KV object."""
        oid = yield from cont.alloc_oid(oclass)
        return cls(cont.open_object(oid))

    @classmethod
    def open(cls, cont, oid: ObjId) -> "DaosKV":
        return cls(cont.open_object(oid))

    @property
    def oid(self) -> ObjId:
        return self.obj.oid

    def put(self, key: str, value: Any, value_nbytes: int = 0) -> Generator:
        """Task helper: store ``value`` under ``key``.

        ``value_nbytes`` declares the modelled size of the value: the
        update then pays the wire and media cost of streaming that many
        bytes (the large-value KV path), instead of the fixed
        small-record cost. Pass it when storing payloads; leave it 0 for
        metadata records.
        """
        validate_key(key)
        yield from self.obj.put(
            _encode(key), _KV_AKEY, value, value_nbytes=value_nbytes
        )
        return None

    def get(self, key: str, default: Any = _MISSING,
            value_nbytes: int = 0) -> Generator:
        """Task helper: fetch ``key`` (raises DerNonexist without default).

        ``value_nbytes`` mirrors :meth:`put` for large values."""
        validate_key(key)
        try:
            value = yield from self.obj.get(
                _encode(key), _KV_AKEY, value_nbytes=value_nbytes
            )
        except DerNonexist:
            if default is _MISSING:
                raise
            return default
        return value

    def list(self, prefix: str = "",
             after: Optional[str] = None) -> Generator:
        """Task helper: one sorted page of keys starting with ``prefix``.

        ``after`` resumes strictly past a previously returned key (the
        pagination cursor :meth:`scan` drives). The page is truncated at
        ``PAGE`` keys; use :meth:`scan` to enumerate exhaustively.
        """
        raw = _encode(prefix) if prefix else b""
        if after is not None:
            # smallest key strictly greater than ``after``
            lo: Optional[bytes] = _encode(after) + b"\x00"
        else:
            lo = raw or None
        hi = prefix_upper_bound(raw) if raw else None
        keys = yield from self.obj.list_dkeys(lo, hi, PAGE)
        out = []
        for key in keys:
            text = key.decode("utf-8")
            # hi=None fallback (all-0xFF prefix): filter what leaked past
            if text.startswith(prefix):
                out.append(text)
        return out

    def scan(self, prefix: str = "") -> Generator:
        """Task helper: every key with ``prefix``, in order, fetched in
        ``PAGE``-sized batches (each batch one enumeration RPC round)."""
        out: List[str] = []
        cursor: Optional[str] = None
        while True:
            batch = yield from self.list(prefix, after=cursor)
            out.extend(batch)
            if len(batch) < PAGE:
                return out
            cursor = batch[-1]

    def close(self) -> None:
        self.obj.close()


def _encode(key: str) -> bytes:
    if isinstance(key, bytes):
        return key
    return key.encode("utf-8")
