"""VOS container shard: object table → sorted ``(dkey, akey)`` index → values.

One :class:`VosContainer` instance exists per (container, target) pair —
a *shard* of the container. The object layer routes each dkey to exactly
one target (per the object's layout), so a shard holds a disjoint subset
of every object's dkeys.

Each object is one ordered index: a sorted list of ``(dkey, akey)`` keys
and a parallel list of their values, searched with :mod:`bisect`. Every
shipped writer puts one akey under a dkey, so a tree per level bought
nothing; two flat lists are the smallest thing that keeps key order,
and unlike a leaf chain they can be read from the end (see
:meth:`VosContainer.dkey_array_sizes`).

Values under an akey are either *single values* (the newest version
inline, older ones — which rebuild replays onto a returning shard — kept
only once a second version lands) or *array values* (byte extent trees,
latest view only).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from itertools import groupby
from operator import itemgetter
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.daos.vos.extent import ExtentTree
from repro.daos.vos.payload import Payload, ZeroPayload
from repro.errors import DerExist, DerInval, DerNonexist

_EPOCH = _DKEY = itemgetter(0)  # of a history entry, of an index key
#: the index of an object this shard does not hold
_NO_INDEX: Tuple[List, List] = ([], [])


class EpochClock:
    """Monotonic epoch source shared by every shard of a system.

    Real VOS containers stamp updates with HLC timestamps that are
    globally ordered across engines; sharing one counter per simulated
    system gives the same property — an epoch read from one shard is
    directly comparable with an epoch read from any other, which is what
    lets the rebuild engine use "epoch at exclusion time" as a resync
    watermark. Epoch values never depend on simulated time, so the clock
    adds no timing perturbation.
    """

    __slots__ = ("_epoch",)

    def __init__(self) -> None:
        self._epoch = 0

    def next(self) -> int:
        self._epoch += 1
        return self._epoch

    @property
    def current(self) -> int:
        return self._epoch


class SingleValue:
    """The versions of a single value under an akey.

    The newest version sits inline in ``epoch`` / ``value``; ``older``
    stays ``None`` until a second version lands, then holds the earlier
    ``(epoch, value)`` versions, epoch-sorted. :meth:`VosContainer.value`
    makes one empty and its caller writes it at once, so a stored value
    always has a newest version.
    """

    __slots__ = ("epoch", "value", "older")

    def __init__(self) -> None:
        self.epoch: Optional[int] = None
        self.value: Any = None
        self.older: Optional[List[Tuple[int, Any]]] = None

    def update(self, epoch: int, value: Any) -> None:
        # Rebuild replays values at their original epochs, which may
        # interleave with epochs of writes that landed on this shard while
        # the resync was in flight: the newest by epoch stays inline.
        if self.epoch is None:
            self.epoch, self.value = epoch, value
            return
        if self.older is None:
            self.older = []
        if epoch < self.epoch:
            insort(self.older, (epoch, value), key=_EPOCH)
        else:
            self.older.append((self.epoch, self.value))
            self.epoch, self.value = epoch, value

    def fetch(self) -> Any:
        return self.value

    @property
    def history(self) -> List[Tuple[int, Any]]:
        """Every ``(epoch, value)`` version, oldest first (a new list)."""
        return [*(self.older or ()), (self.epoch, self.value)]


class VosContainer:
    """A container shard on one target."""

    def __init__(self, uuid: str, pool: "object" = None):
        self.uuid = uuid
        self.pool = pool  # VosPool shard, for capacity accounting
        #: oid -> (sorted ``(dkey, akey)`` keys, their values in step)
        self.objects: Dict[Any, Tuple[List[Tuple[Any, Any]], List[Any]]] = {}
        clock = getattr(pool, "clock", None)
        # standalone shards (unit tests) fall back to a private clock
        self.clock = clock if clock is not None else EpochClock()

    # ------------------------------------------------------------- epochs
    def next_epoch(self) -> int:
        return self.clock.next()

    # ------------------------------------------------------------- lookup
    def value(self, oid: Any, dkey: Any, akey: Any, kind: type,
              create: bool = False):
        """The one point lookup: the ``kind`` value (:class:`SingleValue`
        or :class:`ExtentTree`) under ``oid`` / ``dkey`` / ``akey``.

        Absent levels are made when ``create``; otherwise an absent
        value is ``None``. An akey holding the other kind is the
        caller's error on every path: ``DerInval``.
        """
        index = self.objects.get(oid)
        if index is None:
            if not create:
                return None
            index = self.objects[oid] = ([], [])
        keys, values = index
        key = (dkey, akey)
        at = bisect_left(keys, key)
        if at == len(keys) or keys[at] != key:
            if not create:
                return None
            keys.insert(at, key)
            values.insert(at, kind())
        elif not isinstance(values[at], kind):
            raise DerInval(
                f"akey {akey!r} holds "
                + ("an array value" if kind is SingleValue else "a single value")
            )
        return values[at]

    def _under(self, oid: Any, dkey: Any = None):
        """``(keys, values, positions)``: where ``oid``'s index holds
        ``dkey`` — the whole index when ``dkey`` is ``None``."""
        keys, values = self.objects.get(oid, _NO_INDEX)
        if dkey is None:
            return keys, values, range(len(keys))
        return keys, values, range(bisect_left(keys, dkey, key=_DKEY),
                                   bisect_right(keys, dkey, key=_DKEY))

    def walk(self, oid: Any, dkey: Any = None) -> Iterator[Tuple[Any, Any, Any]]:
        """``(dkey, akey, value)`` for everything held under ``oid`` (or
        under one of its dkeys), in key order."""
        keys, values, span = self._under(oid, dkey)
        for at in span:
            yield (*keys[at], values[at])

    def _charge(self, delta: int) -> None:
        if self.pool is not None:
            self.pool.charge(delta)

    # ------------------------------------------------------------- single values
    def update_single(self, oid: Any, dkey: Any, akey: Any, value: Any) -> int:
        """Write a single value; returns the epoch used."""
        epoch = self.next_epoch()
        self.value(oid, dkey, akey, SingleValue, create=True).update(epoch, value)
        self._charge(_value_footprint(value))
        return epoch

    def fetch_single(self, oid: Any, dkey: Any, akey: Any) -> Any:
        single = self.value(oid, dkey, akey, SingleValue)
        if single is None:
            raise DerNonexist(f"{oid} dkey/akey {dkey!r}/{akey!r}")
        return single.fetch()

    # ------------------------------------------------------------- array values
    def update_array(self, oid: Any, dkey: Any, akey: Any, offset: int, data) -> int:
        """Write bytes into an array akey; returns the epoch used."""
        epoch = self.next_epoch()
        tree = self.value(oid, dkey, akey, ExtentTree, create=True)
        self._charge(tree.write(offset, data, epoch))
        return epoch

    def fetch_array(
        self, oid: Any, dkey: Any, akey: Any, offset: int, length: int
    ) -> Payload:
        """Read bytes (holes zero-filled); absent keys read as holes."""
        tree = self.value(oid, dkey, akey, ExtentTree)
        if tree is None:
            return ZeroPayload(max(0, length))
        return tree.read(offset, length)

    def punch_array(
        self, oid: Any, dkey: Any, akey: Any, offset: int, length: int
    ) -> int:
        tree = self.value(oid, dkey, akey, ExtentTree)
        if tree is None:
            return 0
        freed = tree.punch(offset, length)
        self._charge(-freed)
        return freed

    # ------------------------------------------------------------- enumeration / punch
    def list_dkeys(self, oid: Any, lo: Any = None, hi: Any = None) -> Iterator[Any]:
        """Distinct dkeys with ``lo <= dkey < hi`` in order; a missing
        bound is open."""
        keys, _values = self.objects.get(oid, _NO_INDEX)
        start = 0 if lo is None else bisect_left(keys, lo, key=_DKEY)
        stop = len(keys) if hi is None else bisect_left(keys, hi, key=_DKEY)
        return (dkey for dkey, _akeys
                in groupby(keys[at][0] for at in range(start, stop)))

    def dkey_array_sizes(self, oid: Any, akey: Any) -> Iterator[Tuple[Any, int]]:
        """``(dkey, extent-tree size)`` of the highest dkey holding a
        non-empty ``akey`` array — at most one pair.

        That pair alone decides the object's size: a chunk (or EC cell)
        is at most one chunk long, so for non-empty chunks ``i < j``,
        ``i*cs + size_i <= (i+1)*cs <= j*cs < j*cs + size_j``.
        """
        keys, values = self.objects.get(oid, _NO_INDEX)
        for at in reversed(range(len(keys))):
            held = values[at]
            if keys[at][1] == akey and isinstance(held, ExtentTree) and len(held):
                yield keys[at][0], held.size
                return

    def _uncharge(self, oid: Any, dkey: Any = None) -> None:
        """Hand back the bytes a punch is about to drop: an array's
        extents, or every version of a single value."""
        for _dkey, _akey, held in self.walk(oid, dkey):
            if isinstance(held, ExtentTree):
                self._charge(-held.used_bytes)
            else:
                self._charge(-sum(_value_footprint(value)
                                  for _epoch, value in held.history))

    def punch_dkey(self, oid: Any, dkey: Any) -> bool:
        self._uncharge(oid, dkey)
        keys, values, span = self._under(oid, dkey)
        del keys[span.start:span.stop], values[span.start:span.stop]
        return len(span) > 0

    def punch_object(self, oid: Any) -> bool:
        self._uncharge(oid)
        return self.objects.pop(oid, None) is not None

    # ------------------------------------------------------------- rebuild
    def replay_single(self, oid: Any, dkey: Any, akey: Any, epoch: int, value: Any) -> None:
        """Insert a KV history entry at its *original* epoch.

        Used by the rebuild engine when resyncing a returning shard: the
        value keeps the epoch it was written with on the surviving
        replica, so a newer write that raced onto this shard while the
        resync was in flight still wins the visibility scan.
        """
        single = self.value(oid, dkey, akey, SingleValue, create=True)
        if any(e == epoch for e, _ in single.history):
            return  # already present (replica had the write)
        single.update(epoch, value)
        self._charge(_value_footprint(value))

    def replay_array(
        self, oid: Any, dkey: Any, akey: Any, offset: int, data, epoch: int
    ) -> int:
        """Overlay rebuilt bytes at their original epoch.

        Unlike :meth:`update_array` this never clobbers ranges the shard
        already holds at an equal-or-newer epoch (writes that raced with
        the resync). Returns bytes actually written.
        """
        tree = self.value(oid, dkey, akey, ExtentTree, create=True)
        delta = tree.write_rebuild(offset, data, epoch)
        self._charge(delta)
        return delta

    def rebuild_delta(self, oid: Any, after_epoch: int = 0) -> Iterator[Tuple]:
        """Everything this shard holds for ``oid`` newer than ``after_epoch``.

        Yields, in deterministic (dkey, akey) order:

        - ``("single", dkey, akey, epoch, value)`` — the *latest* KV
          history entry per key;
        - ``("extent", dkey, akey, offset, payload, epoch)`` — one entry
          per stored extent.
        """
        for dkey, akey, held in self.walk(oid):
            if isinstance(held, SingleValue):
                if held.epoch > after_epoch:
                    yield ("single", dkey, akey, held.epoch, held.value)
            else:
                for ext in held:
                    if ext.epoch > after_epoch:
                        yield ("extent", dkey, akey, ext.offset,
                               ext.payload, ext.epoch)


def _value_footprint(value: Any) -> int:
    """Approximate media footprint of a single value."""
    if isinstance(value, Payload):
        return value.nbytes
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    return 64  # fixed-cost record (inode entries, counters, props)
