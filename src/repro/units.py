"""Size/time unit helpers used throughout the stack.

Sizes are plain ``int`` bytes; times are ``float`` seconds. IOR-style size
strings ("1m", "64M", "4k", "1g") use binary units, matching the IOR
command-line convention (``-t 1m`` means 1 MiB).
"""

from __future__ import annotations

import zlib
from typing import Iterator, Tuple

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB
TiB = 1024 * GiB

US = 1e-6
MS = 1e-3

_SUFFIX = {
    "": 1,
    "b": 1,
    "k": KiB,
    "kib": KiB,
    "kb": KiB,
    "m": MiB,
    "mib": MiB,
    "mb": MiB,
    "g": GiB,
    "gib": GiB,
    "gb": GiB,
    "t": TiB,
    "tib": TiB,
    "tb": TiB,
}


def parse_size(value: int | str) -> int:
    """Parse an IOR-style size ("64m", "1g", 4096) into bytes.

    >>> parse_size("1m")
    1048576
    >>> parse_size(512)
    512
    """
    if isinstance(value, int):
        if value < 0:
            raise ValueError(f"negative size: {value}")
        return value
    text = value.strip().lower()
    idx = len(text)
    while idx > 0 and not text[idx - 1].isdigit():
        idx -= 1
    num, suffix = text[:idx], text[idx:].strip()
    if not num or suffix not in _SUFFIX:
        raise ValueError(f"cannot parse size {value!r}")
    return int(num) * _SUFFIX[suffix]


def split_aligned(offset: int, length: int,
                  size: int) -> Iterator[Tuple[int, int, int]]:
    """Cut [offset, offset+length) at the multiples of ``size``.

    Yields ``(index, within, take)`` per piece: bytes ``[within,
    within + take)`` of block ``index``, i.e. file bytes starting at
    ``index * size + within``. Chunks, EC cells, stripes, FUSE windows,
    file domains and transfer buffers are all cut by this one rule.

    >>> list(split_aligned(5, 10, 8))
    [(0, 5, 3), (1, 0, 7)]
    """
    if size <= 0:
        raise ValueError(f"block size must be positive, got {size}")
    stop = offset + length
    while offset < stop:
        index, within = divmod(offset, size)
        take = min(size - within, stop - offset)
        yield index, within, take
        offset += take


def stable_seed(text: str) -> int:
    """Stable 16-bit content seed for deterministic payload patterns.

    Python's ``hash()`` is salted per process (PYTHONHASHSEED), so it
    must never seed simulated data; crc32 is stable across processes,
    platforms and python versions.

    >>> stable_seed("t2m/012")
    13014
    """
    return zlib.crc32(text.encode("utf-8")) & 0xFFFF


def fmt_size(nbytes: float) -> str:
    """Human-readable binary size string ("1.0 MiB")."""
    value = float(nbytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB", "PiB"):
        if abs(value) < 1024 or unit == "PiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    raise AssertionError("unreachable")


def fmt_bw(bytes_per_s: float) -> str:
    """Format a bandwidth as GiB/s (IOR reports MiB/s; GiB/s reads better
    at the aggregate scales in the paper)."""
    return f"{bytes_per_s / GiB:.2f} GiB/s"


def fmt_time(seconds: float) -> str:
    """Human-readable duration."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds:.3f} s"
