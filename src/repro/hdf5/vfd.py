"""Virtual file drivers: how HDF5-lite bytes reach storage.

``sec2`` issues plain pread/pwrite against a mounted
:class:`~repro.posix.vfs.FileSystem`. Raw-data transfers additionally
pay *staging* — H5D read/write packing through HDF5's conversion/sieve
buffering, a client-side memcpy-bound pipeline — whenever the file was
created without an alignment matching the mount's preferred I/O size
(the HDF5 default, ``alignment=1``). Metadata I/O is small and always
direct.

``mpio`` maps raw-data transfers to MPI-IO (collective or independent);
collective buffering packs on the aggregators as part of the exchange,
so no extra staging is charged.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.daos.vos.payload import Payload, as_payload
from repro.mpiio.file import MpiFile
from repro.posix.vfs import FileSystem, rw_flags


#: software cost of one H5Dread/H5Dwrite call, paid once per raw transfer
H5_OP_CPU = 30e-6


class Vfd:
    """Driver interface used by :class:`~repro.hdf5.file.H5File`."""

    #: preferred I/O size of the underlying storage (for the alignment check)
    preferred_io: int = 4096

    def open(self, path: str, create: bool, trunc: bool) -> Generator:
        raise NotImplementedError

    def read_meta(self, addr: int, length: int) -> Generator:
        raise NotImplementedError

    def write_meta(self, addr: int, data) -> Generator:
        raise NotImplementedError

    def read_raw(self, addr: int, length: int, aligned: bool) -> Generator:
        raise NotImplementedError

    def write_raw(self, addr: int, data, aligned: bool) -> Generator:
        raise NotImplementedError

    def sync(self) -> Generator:
        raise NotImplementedError

    def close(self) -> Generator:
        raise NotImplementedError


class Sec2Vfd(Vfd):
    """POSIX driver over any VFS mount (DFuse, Lustre)."""

    #: conversion/sieve staging pipeline bandwidth for unaligned raw I/O
    staging_bw = 0.6e9

    def __init__(self, mount: FileSystem):
        self.mount = mount
        self.preferred_io = mount.blksize
        self._handle = None

    def open(self, path: str, create: bool, trunc: bool) -> Generator:
        self._handle = yield from self.mount.open(path, rw_flags(create, trunc))
        return None

    def read_meta(self, addr: int, length: int) -> Generator:
        return (yield from self._handle.pread(addr, length))

    def write_meta(self, addr: int, data) -> Generator:
        return (yield from self._handle.pwrite(addr, data))

    def _staging(self, nbytes: int, aligned: bool) -> float:
        cost = H5_OP_CPU
        if not aligned:
            cost += nbytes / self.staging_bw
        return cost

    def read_raw(self, addr: int, length: int, aligned: bool) -> Generator:
        yield self._staging(length, aligned)
        return (yield from self._handle.pread(addr, length))

    def write_raw(self, addr: int, data, aligned: bool) -> Generator:
        payload = as_payload(data)
        yield self._staging(payload.nbytes, aligned)
        return (yield from self._handle.pwrite(addr, payload))

    def sync(self) -> Generator:
        yield from self._handle.fsync()
        return None

    def close(self) -> Generator:
        yield from self._handle.close()
        self._handle = None
        return None


class MpioVfd(Vfd):
    """Parallel driver over MPI-IO; raw transfers may be collective."""

    def __init__(self, ctx, mount: FileSystem, collective: bool = True,
                 cb_buffer: int = None, aio_depth: int = 0):
        from repro.mpiio.romio import DEFAULT_CB_BUFFER

        self.ctx = ctx
        self.mount = mount
        self.collective = collective
        self.cb_buffer = DEFAULT_CB_BUFFER if cb_buffer is None else cb_buffer
        #: aggregator-side event-queue depth inside collective calls
        self.aio_depth = aio_depth
        self._file: Optional[MpiFile] = None

    def open(self, path: str, create: bool, trunc: bool) -> Generator:
        self._file = yield from MpiFile.open(
            self.ctx, path, self.mount, create=create, trunc=trunc,
            cb_buffer=self.cb_buffer, aio_depth=self.aio_depth,
        )
        return None

    def read_meta(self, addr: int, length: int) -> Generator:
        return (yield from self._file.read_at(addr, length))

    def write_meta(self, addr: int, data) -> Generator:
        return (yield from self._file.write_at(addr, data))

    def read_raw(self, addr: int, length: int, aligned: bool) -> Generator:
        yield H5_OP_CPU
        if self.collective:
            return (yield from self._file.read_at_all(addr, length))
        return (yield from self._file.read_at(addr, length))

    def write_raw(self, addr: int, data, aligned: bool) -> Generator:
        yield H5_OP_CPU
        if self.collective:
            return (yield from self._file.write_at_all(addr, data))
        return (yield from self._file.write_at(addr, data))

    def sync(self) -> Generator:
        yield from self._file.sync()
        return None

    def close(self) -> Generator:
        yield from self._file.close()
        self._file = None
        return None
