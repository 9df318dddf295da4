"""Unit tests for the HDF5-lite metadata framing."""

import pytest

from repro.hdf5.format import (
    SUPERBLOCK_SIZE,
    FormatError,
    pack_catalog,
    pack_superblock,
    unpack_catalog,
    unpack_superblock,
)


def test_superblock_roundtrip():
    raw = pack_superblock(512, 100, 4096, 1 << 20)
    assert len(raw) == SUPERBLOCK_SIZE
    record = unpack_superblock(raw)
    assert record["catalog_addr"] == 512
    assert record["catalog_len"] == 100
    assert record["eof"] == 4096
    assert record["alignment"] == 1 << 20


def test_superblock_bad_magic():
    with pytest.raises(FormatError):
        unpack_superblock(b"\x00" * SUPERBLOCK_SIZE)


def test_catalog_roundtrip():
    catalog = {"datasets": {"a": {"dtype": "u1"}}, "attrs": {"k": 1}}
    assert unpack_catalog(pack_catalog(catalog)) == catalog


def test_catalog_truncated():
    frame = pack_catalog({"datasets": {}})
    with pytest.raises(FormatError):
        unpack_catalog(frame[:4])
    with pytest.raises(FormatError):
        unpack_catalog(frame[:-2])
