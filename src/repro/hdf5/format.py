"""On-disk framing for HDF5-lite metadata.

Metadata is serialized as length-prefixed JSON frames (structural
fidelity, not byte-format fidelity — DESIGN.md §8.4): a fixed 512-byte
superblock at address 0 holding the catalog pointer, EOF and the
alignment property, and a catalog frame re-written on flush holding
every dataset header and the (empty) file-attribute table.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, Tuple

SUPERBLOCK_SIZE = 512
MAGIC = b"\x89RHDF5\r\n"
VERSION = 1

_LEN = struct.Struct("<Q")


class FormatError(Exception):
    pass


def pack_superblock(
    catalog_addr: int, catalog_len: int, eof: int, alignment: int
) -> bytes:
    body = json.dumps(
        {
            "version": VERSION,
            "catalog_addr": catalog_addr,
            "catalog_len": catalog_len,
            "eof": eof,
            "alignment": alignment,
        }
    ).encode("utf-8")
    if len(MAGIC) + _LEN.size + len(body) > SUPERBLOCK_SIZE:
        raise FormatError("superblock body too large")
    frame = MAGIC + _LEN.pack(len(body)) + body
    return frame + b"\x00" * (SUPERBLOCK_SIZE - len(frame))


def unpack_superblock(raw: bytes) -> Dict[str, Any]:
    if len(raw) < SUPERBLOCK_SIZE or not raw.startswith(MAGIC):
        raise FormatError("not an HDF5-lite file (bad magic)")
    (length,) = _LEN.unpack_from(raw, len(MAGIC))
    start = len(MAGIC) + _LEN.size
    record = json.loads(raw[start : start + length].decode("utf-8"))
    if record.get("version") != VERSION:
        raise FormatError(f"unsupported version {record.get('version')}")
    return record


def pack_catalog(catalog: Dict[str, Any]) -> bytes:
    body = json.dumps(catalog, sort_keys=True).encode("utf-8")
    return _LEN.pack(len(body)) + body


def unpack_catalog(raw: bytes) -> Dict[str, Any]:
    if len(raw) < _LEN.size:
        raise FormatError("truncated catalog frame")
    (length,) = _LEN.unpack_from(raw, 0)
    if len(raw) < _LEN.size + length:
        raise FormatError("truncated catalog body")
    return json.loads(raw[_LEN.size : _LEN.size + length].decode("utf-8"))
