"""The erasure-coding stripe codec: the one copy of the XOR stripe rules.

An ``EC_kPp`` object stores each chunk as one stripe over ``k + p``
slots: data cell ``i < k`` holds chunk bytes ``[i * cell, (i + 1) *
cell)``, ``cell = chunk_size // k`` (a short final stripe leaves the
trailing cells short or empty), and every parity slot holds the XOR of
the data cells zero-padded to cell 0's length. The array write, the
degraded read, ``size`` and rebuild all use it; the byte-by-byte check
in :mod:`repro.faults.invariants` is the independent oracle.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.daos.vos.payload import Payload, XorPayload, ZeroPayload, concat_payloads
from repro.errors import DerInval


def cell_len(chunk_size: int, k: int) -> int:
    """A data cell's length: ``chunk_size`` spread over ``k`` cells."""
    if chunk_size % k:
        raise DerInval(f"chunk size {chunk_size} not divisible by ec_k={k}")
    return chunk_size // k


def cell_offset(pos: int, cell: int) -> int:
    """Offset within its chunk of data cell ``pos``'s first byte."""
    return pos * cell


def split(fragment: Payload, k: int, cell: int) -> List[Payload]:
    """The ``k`` data cells of a chunk written from its first byte."""
    n = fragment.nbytes
    return [fragment.slice(min(cell_offset(pos, cell), n),
                           min(cell_offset(pos + 1, cell), n))
            for pos in range(k)]


def pad(cell: Payload, length: int) -> Payload:
    """``cell`` zero-padded, or truncated, to ``length`` bytes."""
    if cell.nbytes == length:
        return cell
    if cell.nbytes > length:
        return cell.slice(0, length)
    return concat_payloads([cell, ZeroPayload(length - cell.nbytes)])


def xor(cells: Sequence[Payload], length: int) -> Payload:
    """The XOR of ``cells``, each padded to ``length``."""
    return XorPayload([pad(cell, length) for cell in cells])


def parity(cells: Sequence[Payload]) -> Payload:
    """A stripe's parity over its data ``cells``."""
    return xor(cells, cells[0].nbytes)


def survivors(live: Sequence[bool], pos: int, k: int) -> Optional[List[int]]:
    """The slots whose XOR rebuilds slot ``pos`` of a stripe whose slots
    are ``live``: the other data cells and, for a data cell, the first
    live parity. ``None`` when too many failed."""
    sources = [j for j in range(k) if j != pos]
    if pos < k:
        sources += [j for j in range(k, len(live)) if live[j]][:1]
    if len(sources) < k or not all(live[j] for j in sources):
        return None
    return sources


def recoverable(live: Sequence[bool], k: int) -> bool:
    """Whether every data cell of a stripe whose slots are ``live`` reads
    back, itself or through its :func:`survivors` (for one parity: at
    least ``k`` of the ``k + 1`` slots live)."""
    return all(live[pos] or survivors(live, pos, k) for pos in range(k))


def rebuild_cell(
    cells: Sequence[Optional[Payload]], pos: int, k: int
) -> Optional[Payload]:
    """Slot ``pos`` rebuilt from the other slots' ``cells`` (``None``:
    unreadable; empty: holds nothing), or ``None`` if there is nothing to
    rebuild or too many failed. Survivors are padded to the parity's
    length (cell 0's when the parity is rebuilt). A data cell keeps its
    upper-bound length, that of cell ``pos - 1`` (the parity's for cell
    0): on a short final stripe that can add trailing zeros, which only
    ``size()`` can see (DESIGN.md §7.3)."""
    sources = survivors([cell is not None for cell in cells], pos, k)
    if sources is None:
        return None
    padded = cells[sources[-1] if pos < k else 0].nbytes
    length = cells[pos - 1].nbytes if 0 < pos < k else padded
    if padded == 0 or length == 0:
        return None
    return xor([cells[j] for j in sources], padded).slice(0, length)
