"""HDF5-DAOS backend: HDF5 through the DAOS VOL connector.

The interface the DAOS community actually built for HDF5 (the HDF Group
daos-vol plugin): the same H5File/Dataset API the ``HDF5`` api drives,
but datasets live in :class:`~repro.daos.array.DaosArray` objects and
metadata in :class:`~repro.daos.kv.DaosKV` records — no DFuse mount, no
MPI-IO, no staging, no HDF5 on-disk format. Raw transfers go straight
to the object layer, so the api is async-capable like DFS/DAOS: with
``--aio-depth N`` the runner keeps N dataset transfers in flight per
rank, file-per-process *and* shared-file.

Shared files need no collective machinery: rank 0 creates the file and
dataset and flushes the KV catalog, the other ranks open it after a
barrier, and every rank writes its byte range independently.
"""

from __future__ import annotations

from typing import Generator

from repro.daos.oclass import oclass_by_name
from repro.hdf5 import DaosVol
from repro.ior.backends.hdf5 import Hdf5Backend


class Hdf5DaosBackend(Hdf5Backend):
    name = "HDF5-DAOS"
    needs_daos = True
    supports_async = True
    pipelined = True
    # -c selects MPI-IO collective buffering, which this api bypasses
    supports_collective = False

    @classmethod
    def check_params(cls, params) -> None:
        return None  # no VFD constraints: async works fpp and shared

    def _oclass(self):
        name = self.params.oclass or self.storage.cont.props.get("oclass", "SX")
        return oclass_by_name(name)

    def _vol(self):
        return DaosVol(
            self.storage.cont,
            oclass=self._oclass(),
            chunk_bytes=self.params.chunk_size,
        )

    def open(self, path: str, create: bool) -> Generator:
        # shared file: rank 0 creates and publishes the KV catalog
        return self._open_shared(
            create, lambda: self._create(path), lambda: self._attach(path)
        )
