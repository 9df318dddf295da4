"""HDF5 backend (native-format VOL).

File-per-process runs use the ``sec2`` VFD on the DFuse mount — the
paper's slow path (unaligned raw data + staging). Shared-file runs use
the ``mpio`` VFD (parallel HDF5), with collective transfers when
``-c`` is given — the configuration that keeps HDF5 competitive in
Figure 2; ``--aio-depth N`` additionally pipelines the collective
aggregators' storage calls. One 1-D byte dataset named ``data`` spans
the whole file, matching how IOR's HDF5 backend lays out its test file.
"""

from __future__ import annotations

from typing import Generator, Tuple

from repro.daos.oclass import oclass_by_name
from repro.hdf5 import H5File, MpioVfd, NativeVol, Sec2Vfd
from repro.ior.backends.base import Backend
from repro.obs.tracer import span_of

DATASET = "data"


class Hdf5Backend(Backend):
    name = "HDF5"
    supports_collective = True
    # async depth applies to shared-file collective runs, where the mpio
    # VFD's aggregators pipeline their transfers (two-phase + eq)
    supports_async = True

    @classmethod
    def check_params(cls, params) -> None:
        if params.aio_queue_depth > 1 and (
            params.file_per_proc or not params.collective
        ):
            raise ValueError(
                "HDF5 async pipelining rides the collective mpio VFD; it "
                "requires a shared file with collective I/O (-c, no -F) — "
                "or use the HDF5-DAOS api"
            )
        if params.oclass is not None and oclass_by_name(params.oclass).is_ec:
            raise ValueError("native HDF5 writes unaligned metadata, which "
                             "EC classes cannot store; use HDF5-DAOS")

    def _vol(self):
        if self.params.file_per_proc:
            return NativeVol(Sec2Vfd(self.storage.mount))
        return NativeVol(MpioVfd(
            self.ctx,
            self.storage.mount,
            collective=self.params.collective,
            cb_buffer=self.params.cb_buffer,
            aio_depth=(
                self.params.aio_queue_depth if self.params.collective else 0
            ),
        ))

    def _dataset_bytes(self) -> int:
        per_rank = self.params.bytes_per_rank()
        if self.params.file_per_proc:
            return per_rank
        return per_rank * self.ctx.size

    def _create(self, path: str) -> Generator:
        h5 = yield from H5File.create(self._vol(), path)
        dataset = yield from h5.create_dataset(
            DATASET, (self._dataset_bytes(),), dtype="u1"
        )
        yield from h5.flush()
        return (h5, dataset)

    def _attach(self, path: str) -> Generator:
        h5 = yield from H5File.open(self._vol(), path)
        return (h5, h5.dataset(DATASET))

    def open(self, path: str, create: bool) -> Generator:
        # a shared file goes through MpiFile.open, which has its own rule
        return self._create(path) if create else self._attach(path)

    def _count(self, op: str, vol: str, nbytes: int) -> None:
        metrics = self.ctx.sim.metrics
        if metrics is not None:
            metrics.incr(f"hdf5.{op}.bytes{{vol={vol}}}", nbytes)
            metrics.incr(f"hdf5.{op}.ops{{vol={vol}}}")

    def write(self, handle: Tuple, offset: int, payload) -> Generator:
        h5, dataset = handle
        vol = h5.vol.kind
        with span_of(self.ctx.sim, "hdf5.dataset_write", "hdf5",
                     self.ctx.node.name, offset=offset,
                     nbytes=payload.nbytes, vol=vol):
            nbytes = (
                yield from dataset.write((offset,), (payload.nbytes,), payload)
            )
        self._count("write", vol, payload.nbytes)
        return nbytes

    def read(self, handle: Tuple, offset: int, nbytes: int) -> Generator:
        h5, dataset = handle
        vol = h5.vol.kind
        with span_of(self.ctx.sim, "hdf5.dataset_read", "hdf5",
                     self.ctx.node.name, offset=offset, nbytes=nbytes,
                     vol=vol):
            payload = yield from dataset.read((offset,), (nbytes,))
        self._count("read", vol, nbytes)
        return payload

    def fsync(self, handle: Tuple) -> Generator:
        h5, _dataset = handle
        yield from h5.flush()
        yield from h5.sync()
        return None

    def close(self, handle: Tuple) -> Generator:
        h5, _dataset = handle
        yield from h5.close()
        return None
