"""Unit + property tests for the VOS extent tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.daos.vos.extent import ExtentTree
from repro.daos.vos.payload import BytesPayload, PatternPayload, ZeroPayload


def test_write_read_roundtrip():
    tree = ExtentTree()
    tree.write(0, b"hello", epoch=1)
    assert tree.read(0, 5).materialize() == b"hello"
    assert tree.size == 5


def test_read_hole_is_zero_filled():
    tree = ExtentTree()
    tree.write(10, b"xy", epoch=1)
    data = tree.read(8, 6).materialize()
    assert data == b"\x00\x00xy\x00\x00"


def test_read_empty_tree():
    tree = ExtentTree()
    assert tree.read(0, 4).materialize() == b"\x00" * 4
    assert tree.read(5, 0).nbytes == 0
    assert tree.size == 0


def test_overwrite_full():
    tree = ExtentTree()
    tree.write(0, b"aaaa", epoch=1)
    tree.write(0, b"bbbb", epoch=2)
    assert tree.read(0, 4).materialize() == b"bbbb"
    assert len(tree) == 1
    tree.check_invariants()


def test_overwrite_partial_splits_old_extent():
    tree = ExtentTree()
    tree.write(0, b"aaaaaaaa", epoch=1)
    tree.write(2, b"BB", epoch=2)
    assert tree.read(0, 8).materialize() == b"aaBBaaaa"
    assert len(tree) == 3
    tree.check_invariants()


def test_overwrite_spanning_multiple_extents():
    tree = ExtentTree()
    tree.write(0, b"aaaa", epoch=1)
    tree.write(4, b"bbbb", epoch=2)
    tree.write(8, b"cccc", epoch=3)
    tree.write(2, b"XXXXXXXX", epoch=4)
    assert tree.read(0, 12).materialize() == b"aaXXXXXXXXcc"
    tree.check_invariants()


def test_capacity_delta_accounts_overwrites():
    tree = ExtentTree()
    assert tree.write(0, b"aaaa", epoch=1) == 4
    assert tree.write(2, b"bbbb", epoch=2) == 2  # 2 bytes reclaimed
    assert tree.used_bytes == 6


def test_punch_frees_and_leaves_hole():
    tree = ExtentTree()
    tree.write(0, b"abcdefgh", epoch=1)
    freed = tree.punch(2, 4)
    assert freed == 4
    assert tree.read(0, 8).materialize() == b"ab\x00\x00\x00\x00gh"
    assert tree.punch(100, 5) == 0
    assert tree.punch(0, 0) == 0
    tree.check_invariants()


def test_negative_offset_rejected():
    tree = ExtentTree()
    with pytest.raises(ValueError):
        tree.write(-1, b"x", epoch=1)


def test_zero_length_write_is_noop():
    tree = ExtentTree()
    assert tree.write(5, b"", epoch=1) == 0
    assert tree.size == 0


def test_pattern_payloads_stay_lazy_across_overwrite():
    tree = ExtentTree()
    tree.write(0, PatternPayload(seed=1, origin=0, nbytes=1024), epoch=1)
    tree.write(100, PatternPayload(seed=2, origin=100, nbytes=10), epoch=2)
    out = tree.read(0, 1024)
    expected = bytearray(PatternPayload(1, 0, 1024).materialize())
    expected[100:110] = PatternPayload(2, 100, 10).materialize()
    assert out.materialize() == bytes(expected)


def test_sequential_pattern_read_is_coalesced():
    tree = ExtentTree()
    for i in range(8):
        tree.write(i * 64, PatternPayload(seed=9, origin=i * 64, nbytes=64), epoch=i)
    result = tree.read(0, 512)
    assert isinstance(result, PatternPayload)
    assert result.nbytes == 512


SPACE = 300

_offsets = st.integers(0, 200)
_lengths = st.integers(0, 64)
_ops = st.one_of(
    st.tuples(st.just("write"), _offsets, _lengths, st.booleans()),
    st.tuples(st.just("write_rebuild"), _offsets, _lengths, st.integers(0, 70)),
    st.tuples(st.just("punch"), _offsets, _lengths),
    st.tuples(st.just("lookup"), _offsets, _lengths),
    st.tuples(st.just("covered_at"), _offsets, _lengths, st.integers(0, 70)),
    st.tuples(st.just("remove"), st.integers(0, 10)),
    st.tuples(st.just("pop_first_run"), st.integers(1, 96)),
    st.tuples(st.just("clear")),
)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(_ops, max_size=60))
def test_property_matches_bytearray_model(ops):
    """The whole API against the naive model: one ``(value, epoch)`` per
    byte, ``None`` where nothing is held. Every user of the map (VOS,
    Lustre OSTs, the caches, rebuild) is some subset of these ops."""
    tree = ExtentTree()
    model = [None] * SPACE
    epoch = 0

    def data_for(offset, length):
        return bytes((offset + i + epoch) % 251 for i in range(length))

    def held(lo, hi):
        return sum(cell is not None for cell in model[lo:hi])

    for op, *args in ops:
        epoch += 1
        if op == "write":
            offset, length, merge = args
            # merging only joins neighbours of the same epoch, so every
            # other write reuses one to give it something to join
            stamp = epoch // 2 if merge else epoch
            data = data_for(offset, length)
            before = held(offset, offset + length)
            assert tree.write(offset, data, stamp, merge=merge) == length - before
            model[offset:offset + length] = [(b, stamp) for b in data]
        elif op == "write_rebuild":
            offset, length, old = args
            data = data_for(offset, length)
            landed = [
                i for i in range(offset, offset + length)
                if model[i] is None or model[i][1] < old
            ]
            fresh = sum(model[i] is None for i in landed)
            assert tree.write_rebuild(offset, data, old) == fresh
            for i in landed:  # equal-or-newer bytes are never clobbered
                model[i] = (data[i - offset], old)
        elif op == "punch":
            offset, length = args
            assert tree.punch(offset, length) == held(offset, offset + length)
            model[offset:offset + length] = [None] * length
        elif op == "lookup":
            offset, length = args
            cursor = offset
            for start, nbytes, ext in tree.lookup(offset, length):
                assert start == cursor and nbytes > 0
                cursor += nbytes
                cells = model[start:start + nbytes]
                if ext is None:
                    assert cells == [None] * nbytes
                else:
                    rel = start - ext.offset
                    got = ext.payload.slice(rel, rel + nbytes).materialize()
                    assert cells == [(b, ext.epoch) for b in got]
            assert cursor == offset + max(length, 0)
        elif op == "covered_at":
            offset, length, floor = args
            assert tree.covered_at(offset, length, floor) == all(
                cell is not None and cell[1] >= floor
                for cell in model[offset:offset + length]
            )
        elif op == "remove":
            if len(tree):
                ext = list(tree)[args[0] % len(tree)]
                assert tree.remove(ext) is True
                assert tree.remove(ext) is False
                model[ext.offset:ext.end] = [None] * ext.length
        elif op == "pop_first_run":
            first = next((i for i, c in enumerate(model) if c is not None), None)
            run = tree.pop_first_run(args[0])
            if first is None:
                assert run is None
            else:
                stop = first
                while (stop < SPACE and stop - first < args[0]
                       and model[stop] is not None):
                    stop += 1
                offset, payload = run
                assert offset == first
                assert payload.materialize() == bytes(
                    c[0] for c in model[first:stop]
                )
                model[first:stop] = [None] * (stop - first)
        else:
            assert tree.clear() == held(0, SPACE)
            model = [None] * SPACE
        tree.check_invariants()  # incl. used_bytes == sum of extents
        assert tree.used_bytes == held(0, SPACE)
        assert tree.spans() == [(e.offset, e.length) for e in tree]
    assert tree.read(0, SPACE).materialize() == bytes(
        c[0] if c is not None else 0 for c in model
    )
    assert tree.size == max(
        (i + 1 for i, c in enumerate(model) if c is not None), default=0
    )
    assert tree.max_epoch == max((c[1] for c in model if c is not None), default=0)


def test_merge_joins_only_same_epoch_neighbours():
    tree = ExtentTree()
    tree.write(0, b"aa", epoch=1, merge=True)
    tree.write(2, b"bb", epoch=2, merge=True)   # other epoch: stays apart
    tree.write(4, b"cc", epoch=2, merge=True)   # same epoch: joins
    assert [(e.offset, e.length, e.epoch) for e in tree] == [
        (0, 2, 1), (2, 4, 2)
    ]
    assert tree.read(0, 6).materialize() == b"aabbcc"
