"""Property tests for the ROMIO building blocks (pure logic)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.daos.vos.payload import BytesPayload
from repro.mpiio.romio import _coalesce, domain_owner, overlaps, split_by_domain
from repro.units import MiB


@settings(max_examples=100, deadline=None)
@given(
    offset=st.integers(0, 10 * MiB),
    length=st.integers(1, 8 * MiB),
    n_aggs=st.integers(1, 6),
)
def test_property_split_by_domain_partitions_exactly(offset, length, n_aggs):
    aggs = list(range(0, n_aggs * 2, 2))
    pieces = split_by_domain(offset, length, aggs)
    # pieces are contiguous, ordered, cover [offset, offset+length)
    cursor = offset
    for agg, start, stop in pieces:
        assert start == cursor
        assert stop > start
        assert agg in aggs
        # ownership is consistent with the static map at every byte
        assert domain_owner(start, aggs) == agg
        assert domain_owner(stop - 1, aggs) == agg
        cursor = stop
    assert cursor == offset + length


@settings(max_examples=60, deadline=None)
@given(offset=st.integers(0, 64 * MiB), n_aggs=st.integers(1, 8))
def test_property_ownership_is_static(offset, n_aggs):
    aggs = list(range(n_aggs))
    # the same offset always maps to the same owner — the property that
    # keeps aggregator extent locks valid across collective calls
    assert domain_owner(offset, aggs) == domain_owner(offset, aggs)
    block = offset // MiB
    assert domain_owner(offset, aggs) == aggs[block % n_aggs]


@settings(max_examples=60, deadline=None)
@given(
    chunks=st.lists(st.integers(0, 20), min_size=1, max_size=12, unique=True)
)
def test_property_coalesce_preserves_content(chunks):
    pieces = [
        (c * 10, BytesPayload(bytes([c]) * 10)) for c in chunks
    ]
    runs = _coalesce(list(pieces))
    # runs are sorted, non-adjacent, and reproduce the exact byte map
    reconstructed = {}
    prev_end = None
    for off, payload in runs:
        if prev_end is not None:
            assert off > prev_end  # truly coalesced: no adjacency left
        for i, b in enumerate(payload.materialize()):
            reconstructed[off + i] = b
        prev_end = off + payload.nbytes
    expected = {}
    for off, payload in pieces:
        for i, b in enumerate(payload.materialize()):
            expected[off + i] = b
    assert reconstructed == expected


def _scatter_brute_force(blocks, ranges):
    """Every block against every rank, the loop ``overlaps`` replaces."""
    hits = []
    for b, (start, stop) in enumerate(blocks):
        for rank, (r_off, r_len) in enumerate(ranges):
            lo, hi = max(r_off, start), min(r_off + r_len, stop)
            if lo < hi:
                hits.append((b, rank, lo, hi))
    return hits


@st.composite
def _gapped_blocks(draw):
    """Sorted, disjoint, non-empty blocks; gaps of zero or more bytes."""
    blocks, cursor = [], draw(st.integers(0, 50))
    for _ in range(draw(st.integers(0, 12))):
        cursor += draw(st.integers(0, 30))
        size = draw(st.integers(1, 30))
        blocks.append((cursor, cursor + size))
        cursor += size
    return blocks


@settings(max_examples=200, deadline=None)
@given(
    blocks=_gapped_blocks(),
    # overlapping, empty (length 0) and out-of-domain ranges all occur
    ranges=st.lists(
        st.tuples(st.integers(0, 500), st.integers(0, 120)), max_size=10
    ),
)
def test_property_scatter_matches_every_block_against_every_rank(
    blocks, ranges
):
    assert overlaps(blocks, ranges) == _scatter_brute_force(blocks, ranges)
