"""POSIX backend: plain VFS calls against any mount (DFuse or Lustre).

Shared-file creation is serialized through rank 0 (matching how IOR's
POSIX backend avoids O_CREAT races on parallel filesystems).
"""

from __future__ import annotations

from typing import Generator

from repro.ior.backends.base import Backend


class PosixBackend(Backend):
    name = "POSIX"

    def open(self, path: str, create: bool) -> Generator:
        mount = self.storage.mount
        return self._open_shared(
            create,
            lambda: mount.open(path, ("w", "creat")),
            lambda: mount.open(path, ("r", "w")),
        )

    def write(self, handle, offset: int, payload) -> Generator:
        return (yield from handle.pwrite(offset, payload))

    def read(self, handle, offset: int, nbytes: int) -> Generator:
        return (yield from handle.pread(offset, nbytes))

    def fsync(self, handle) -> Generator:
        yield from handle.fsync()
        return None

    def close(self, handle) -> Generator:
        yield from handle.close()
        return None
