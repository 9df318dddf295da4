"""Abstract filesystem interface (task-helper flavoured).

All operations are generators to be driven with ``yield from`` inside a
simulated task; they charge simulated time internally. Flags follow a
simplified open(2): any subset of ``{"r", "w", "creat", "trunc", "excl"}``.
Errors are :class:`~repro.errors.FsError` with errno-style names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Iterable, List, Set

from repro.daos.vos.payload import Payload


@dataclass
class StatResult:
    """Subset of ``struct stat`` the stack above needs."""

    is_dir: bool
    size: int
    mode: int
    #: preferred I/O size (st_blksize) — DFuse reports the DFS chunk size
    blksize: int


class FileHandle:
    """An open file. All methods are task helpers."""

    def pread(self, offset: int, length: int) -> Generator:
        """Read up to ``length`` bytes at ``offset`` (short read at EOF);
        returns a :class:`Payload`."""
        raise NotImplementedError

    def pwrite(self, offset: int, data) -> Generator:
        """Write bytes/payload at ``offset``; returns bytes written."""
        raise NotImplementedError

    def fsync(self) -> Generator:
        """Flush to stable storage."""
        raise NotImplementedError

    def close(self) -> Generator:
        """Release the handle."""
        raise NotImplementedError


class FileSystem:
    """An abstract mounted filesystem. All methods are task helpers."""

    #: preferred I/O size reported via stat
    blksize: int = 4096

    def open(self, path: str, flags: Iterable[str] = ("r",)) -> Generator:
        """Open (optionally creating) ``path``; returns a FileHandle."""
        raise NotImplementedError

    def mkdir(self, path: str) -> Generator:
        raise NotImplementedError

    def stat(self, path: str) -> Generator:
        """Returns a :class:`StatResult`."""
        raise NotImplementedError

    def unlink(self, path: str) -> Generator:
        raise NotImplementedError


def normalize(path: str) -> List[str]:
    """Split an absolute-or-relative path into clean components."""
    parts = [p for p in path.split("/") if p and p != "."]
    out: List[str] = []
    for part in parts:
        if part == "..":
            if out:
                out.pop()
        else:
            out.append(part)
    return out


def validate_flags(flags: Iterable[str]) -> Set[str]:
    flag_set = set(flags)
    unknown = flag_set - {"r", "w", "creat", "trunc", "excl"}
    if unknown:
        raise ValueError(f"unknown open flags {sorted(unknown)}")
    if not flag_set & {"r", "w"}:
        flag_set.add("r")
    return flag_set


def rw_flags(create: bool, trunc: bool) -> Set[str]:
    """Read-write open flags, plus ``creat`` / ``trunc`` when asked."""
    flags = {"r", "w"}
    if create:
        flags.add("creat")
    if trunc:
        flags.add("trunc")
    return flags
