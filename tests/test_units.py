"""Tests for size/time helpers."""

import hashlib
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.units import (
    GiB,
    KiB,
    MiB,
    TiB,
    fmt_bw,
    fmt_size,
    fmt_time,
    parse_size,
    split_aligned,
)


def test_parse_size_suffixes():
    assert parse_size("1m") == MiB
    assert parse_size("64M") == 64 * MiB
    assert parse_size("4k") == 4 * KiB
    assert parse_size("2g") == 2 * GiB
    assert parse_size("1t") == TiB
    assert parse_size("3mib") == 3 * MiB
    assert parse_size("7b") == 7
    assert parse_size("123") == 123
    assert parse_size(512) == 512


def test_parse_size_whitespace_and_case():
    assert parse_size("  8 K ") == 8 * KiB
    assert parse_size("1GB") == GiB


def test_parse_size_errors():
    with pytest.raises(ValueError):
        parse_size("abc")
    with pytest.raises(ValueError):
        parse_size("12q")
    with pytest.raises(ValueError):
        parse_size("")
    with pytest.raises(ValueError):
        parse_size(-1)


def test_fmt_size():
    assert fmt_size(512) == "512 B"
    assert fmt_size(1536) == "1.5 KiB"
    assert fmt_size(MiB) == "1.0 MiB"
    assert fmt_size(5 * TiB) == "5.0 TiB"


def test_fmt_bw_and_time():
    assert fmt_bw(GiB) == "1.00 GiB/s"
    assert fmt_time(5e-7) == "0.5 us"
    assert fmt_time(2e-3) == "2.00 ms"
    assert fmt_time(1.5) == "1.500 s"


# ---------------------------------------------------------------- splitter
@settings(max_examples=150, deadline=None)
@given(
    offset=st.integers(0, 1 << 40),
    length=st.integers(-5, 1 << 24),
    size=st.integers(1, 1 << 22),
)
def test_split_aligned_tiles_the_range(offset, length, size):
    length = min(length, 50 * size)  # at most ~50 pieces per example
    pieces = list(split_aligned(offset, length, size))
    if length <= 0:
        assert pieces == []
        return
    cursor = offset
    for index, within, take in pieces:
        assert index * size + within == cursor  # tiles exactly, in order
        assert take > 0 and within + take <= size  # never crosses a multiple
        cursor += take
    assert cursor == offset + length
    # only the first piece may start inside a block, only the last end in one
    assert all(within == 0 for _i, within, _t in pieces[1:])
    assert all(w + t == size for _i, w, t in pieces[:-1])


def test_split_aligned_rejects_bad_block_size():
    for size in (0, -4096):
        with pytest.raises(ValueError):
            list(split_aligned(0, 10, size))


def _splitter_cases():
    rng = random.Random(0x5117)
    for _ in range(400):
        size = rng.choice([1, 7, 4096, 65536, 1 << 20, 1000003])
        offset = rng.randrange(0, 40 * size)
        length = rng.choice([0, 1, size - 1, size, size + 1,
                             rng.randrange(0, 9 * size + 1)])
        yield offset, length, size, rng.randrange(1, 6)


def test_layer_splitters_agree_with_their_hand_rolled_loops():
    """``DFuseMount._windows``, ``LustreFile._pieces`` and
    ``split_by_domain`` each carried their own ``// size, % size`` loop
    before they shared :func:`split_aligned`. The digest is of their
    outputs over these 400 seeded ranges, recorded from those loops."""
    from repro.dfuse.fuse import DFuseMount
    from repro.lustre.client import LustreFile
    from repro.mpiio.romio import split_by_domain

    out = []
    for offset, length, size, width in _splitter_cases():
        mount = DFuseMount.__new__(DFuseMount)
        mount.max_transfer = size
        handle = LustreFile.__new__(LustreFile)
        handle.inode = SimpleNamespace(
            stripe_size=size, stripe_osts=list(range(10, 10 + width)))
        handle.fs = SimpleNamespace(osts=list(range(100, 120)))
        out.append((
            mount._windows(offset, length),
            handle._pieces(offset, length),
            split_by_domain(offset, length, list(range(width)), size),
        ))
    assert out[5] == (
        [(33953663, 46439), (34000102, 953564)],
        [(111, 1, 16953612, 46439), (110, 0, 17000051, 953564)],
        [(1, 33953663, 34000102), (0, 34000102, 34953666)],
    )
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "50443f0326d6124317bdd76f50e88ed9eb904636bb86576647f2c9634ebebbdf"
    )
