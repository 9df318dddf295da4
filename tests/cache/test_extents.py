"""ExtentTree as the caches use it: the interval map under the page cache,
write-behind and read-ahead (VOS-side coverage: tests/daos/test_extent.py)."""

from repro.daos.vos.extent import ExtentTree
from repro.daos.vos.payload import BytesPayload, PatternPayload, as_payload


def pat(origin, nbytes, seed=7):
    return PatternPayload(seed, origin, nbytes)


def cached_bytes_in(m, start, nbytes):
    return sum(n for _s, n, ext in m.lookup(start, nbytes) if ext is not None)


def test_insert_and_lookup_exact():
    m = ExtentTree()
    m.write(100, pat(100, 50))
    cover = m.lookup(100, 50)
    assert len(cover) == 1
    start, length, ext = cover[0]
    assert (start, length) == (100, 50)
    assert ext.payload.materialize() == pat(100, 50).materialize()
    assert m.used_bytes == 50


def test_lookup_reports_holes_in_order():
    m = ExtentTree()
    m.write(10, pat(10, 10))
    m.write(40, pat(40, 10))
    cover = m.lookup(0, 60)
    shape = [(s, n, e is None) for s, n, e in cover]
    assert shape == [
        (0, 10, True),
        (10, 10, False),
        (20, 20, True),
        (40, 10, False),
        (50, 10, True),
    ]
    assert cached_bytes_in(m, 0, 60) == 20


def test_zero_length_lookup_is_empty():
    m = ExtentTree()
    m.write(0, pat(0, 10))
    assert m.lookup(5, 0) == []
    assert cached_bytes_in(m, 5, 0) == 0


def test_insert_empty_payload_rejected():
    # One behaviour for every holder (the cache map used to raise, VOS
    # returned 0): an empty payload is turned away without an error —
    # nothing stored, nothing consumed.
    m = ExtentTree()
    assert m.write(0, as_payload(b"")) == 0
    assert m.write(5, as_payload(b""), merge=True) == 0
    assert len(m) == 0 and m.used_bytes == 0


def test_overwrite_newest_wins():
    m = ExtentTree()
    m.write(0, BytesPayload(b"a" * 30))
    m.write(10, BytesPayload(b"b" * 10))
    assert m.used_bytes == 30
    parts = [
        (s, ext.payload.slice(s - ext.offset, s - ext.offset + n).materialize())
        for s, n, ext in m.lookup(0, 30)
    ]
    assert parts == [(0, b"a" * 10), (10, b"b" * 10), (20, b"a" * 10)]


def test_overwrite_straddling_trims_both_sides():
    m = ExtentTree()
    m.write(0, BytesPayload(b"x" * 10))
    m.write(20, BytesPayload(b"y" * 10))
    m.write(5, BytesPayload(b"Z" * 20))  # clips both neighbours
    assert m.spans() == [(0, 5), (5, 20), (25, 5)]
    assert m.used_bytes == 30


def test_merge_coalesces_adjacent_extents():
    m = ExtentTree()
    m.write(0, pat(0, 10), merge=True)
    m.write(20, pat(20, 10), merge=True)
    assert len(m) == 2
    # the gap-filler bridges both neighbours into one extent
    m.write(10, pat(10, 10), merge=True)
    assert m.spans() == [(0, 30)]
    ext = next(iter(m))
    assert ext.payload.materialize() == pat(0, 30).materialize()


def test_merge_stays_lazy_for_pattern_payloads():
    m = ExtentTree()
    for i in range(8):
        m.write(i * 100, pat(i * 100, 100), merge=True)
    ext = next(iter(m))
    assert isinstance(ext.payload, PatternPayload)
    assert ext.length == 800


def test_remove_range_partial():
    m = ExtentTree()
    m.write(0, pat(0, 100))
    assert m.punch(30, 40) == 40
    assert m.spans() == [(0, 30), (70, 30)]
    assert m.used_bytes == 60
    # the trimmed halves keep the right data
    lo = m.lookup(0, 30)[0][2]
    hi = m.lookup(70, 30)[0][2]
    assert lo.payload.materialize() == pat(0, 30).materialize()
    assert hi.payload.materialize() == pat(70, 30).materialize()


def test_remove_range_no_overlap_is_noop():
    m = ExtentTree()
    m.write(0, pat(0, 10))
    assert m.punch(50, 10) == 0
    assert m.spans() == [(0, 10)]


def test_remove_identity():
    m = ExtentTree()
    m.write(0, pat(0, 10))
    m.write(10, pat(10, 10))
    kept, other = m
    assert m.remove(other) is True
    assert m.remove(other) is False
    assert m.spans() == [(0, 10)]
    assert m.remove(kept) is True
    assert m.used_bytes == 0


def test_pop_first_run_takes_contiguous_prefix():
    m = ExtentTree()
    m.write(0, pat(0, 10), merge=True)
    m.write(10, pat(10, 10), merge=True)
    m.write(50, pat(50, 10), merge=True)
    off, payload = m.pop_first_run(max_bytes=100)
    assert (off, payload.nbytes) == (0, 20)
    assert payload.materialize() == pat(0, 20).materialize()
    assert m.spans() == [(50, 10)]


def test_pop_first_run_respects_cap_and_splits():
    m = ExtentTree()
    m.write(0, pat(0, 100), merge=True)
    off, payload = m.pop_first_run(max_bytes=64)
    assert (off, payload.nbytes) == (0, 64)
    assert m.spans() == [(64, 36)]
    off2, payload2 = m.pop_first_run(max_bytes=64)
    assert (off2, payload2.nbytes) == (64, 36)
    assert payload2.materialize() == pat(64, 36).materialize()
    assert m.used_bytes == 0


def test_pop_first_run_empty_returns_none():
    assert ExtentTree().pop_first_run(64) is None


def test_clear():
    m = ExtentTree()
    m.write(0, pat(0, 10))
    assert m.clear() == 10
    assert m.used_bytes == 0
    assert len(m) == 0
