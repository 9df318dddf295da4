"""DFS backend: the native libdfs path (the paper's "DAOS" lines)."""

from __future__ import annotations

from typing import Generator

from repro.ior.backends.base import Backend


class DfsBackend(Backend):
    name = "DFS"
    # concurrent ops on one DfsFile are safe in the uncached build: each
    # write/read is an independent object-layer op and the IoStream
    # coalesces concurrent transfers into batched wire transfers
    supports_async = True
    needs_daos = True

    def open(self, path: str, create: bool) -> Generator:
        dfs = self.storage.dfs
        return self._open_shared(
            create,
            lambda: dfs.open_file(
                path, create=True, chunk_size=self.params.chunk_size,
                oclass=self.params.oclass,
            ),
            lambda: dfs.open_file(path),
        )

    def write(self, handle, offset: int, payload) -> Generator:
        return (yield from handle.write(offset, payload))

    def read(self, handle, offset: int, nbytes: int) -> Generator:
        return (yield from handle.read(offset, nbytes))

    def fsync(self, handle) -> Generator:
        yield from handle.sync()
        return None

    def close(self, handle) -> Generator:
        # drain write-behind data first; close() surfaces the typed
        # error if the flush could not commit everything
        yield from handle.flush()
        handle.close()
        yield 0.0
        return None
