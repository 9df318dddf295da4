"""H5File: create/open and the metadata catalog, over a pluggable VOL.

Parallel semantics follow HDF5: structural metadata operations
(``create_dataset``) must be performed collectively with identical
arguments, so every rank's in-memory catalog evolves in lock-step; the
connector decides who persists metadata at flush/close time (rank 0 for
the native mpio path, any rank for the DAOS KV path).

Storage connectors implement :class:`~repro.hdf5.vol.Vol`; the native
format over a :class:`~repro.hdf5.vfd.Vfd` is
:class:`~repro.hdf5.vol.NativeVol`.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Sequence

from repro.hdf5.dataset import Dataset
from repro.hdf5.dataspace import Dataspace
from repro.hdf5.datatype import Datatype
from repro.hdf5.vol import CATALOG_REGION, H5Error, Vol

__all__ = ["H5File", "H5Error", "CATALOG_REGION"]


def _connector(vol) -> Vol:
    if not isinstance(vol, Vol):
        raise TypeError(f"expected a Vol, got {type(vol).__name__}")
    return vol


class H5File:
    """An open HDF5-lite file."""

    def __init__(self, vol: Vol, alignment: int):
        self.vol = vol
        self.alignment = max(1, alignment)
        self.datasets: Dict[str, Dataset] = {}
        self.attrs: Dict[str, object] = {}
        self._dirty = False
        self._open = False

    # ------------------------------------------------------------- lifecycle
    @classmethod
    def create(
        cls, vol: Vol, path: str, alignment: int = 1
    ) -> Generator:
        """Task helper: create a fresh file (truncating any old one)."""
        h5 = cls(_connector(vol), alignment)
        yield from vol.create_file(h5, path)
        h5._open = True
        h5._dirty = True
        yield from h5.flush()
        return h5

    @classmethod
    def open(cls, vol: Vol, path: str) -> Generator:
        """Task helper: open an existing file, loading its catalog."""
        record = yield from _connector(vol).open_file(path)
        h5 = cls(vol, record["alignment"])
        h5.attrs = record.get("attrs", {})
        for name, ds_record in record.get("datasets", {}).items():
            h5.datasets[name] = Dataset.from_record(h5, name, ds_record)
        h5._open = True
        return h5

    @property
    def data_aligned(self) -> bool:
        """Raw data is aligned iff the connector says transfers skip
        client-side staging — for the native format, iff the alignment
        property covers the storage's preferred I/O size (the A4
        ablation knob); always true for the DAOS connector."""
        return self.vol.data_aligned(self)

    def _metadata_dirty(self) -> Generator:
        self._dirty = True
        yield 0.0
        return None

    # ------------------------------------------------------------- datasets
    def create_dataset(
        self,
        name: str,
        dims: Sequence[int],
        dtype: str = "u1",
        chunk_rows: Optional[int] = None,
        attrs: Optional[Dict] = None,
    ) -> Generator:
        """Task helper (collective in parallel files): define a dataset.

        ``chunk_rows`` switches to the chunked layout, chunking along
        the outermost axis every ``chunk_rows`` rows.
        """
        if not self._open:
            raise H5Error("file not open")
        if name in self.datasets:
            raise H5Error(f"dataset {name!r} exists")
        space = Dataspace(tuple(dims))
        datatype = Datatype(dtype)
        if chunk_rows is not None and not (0 < chunk_rows <= dims[0]):
            raise H5Error(f"bad chunk_rows {chunk_rows}")
        dataset = Dataset(self, name, space, datatype, {}, attrs)
        yield from self.vol.dataset_added(self, dataset, chunk_rows)
        self.datasets[name] = dataset
        yield from self._metadata_dirty()
        return dataset

    def dataset(self, name: str) -> Dataset:
        try:
            return self.datasets[name]
        except KeyError:
            raise H5Error(f"no dataset {name!r}") from None

    # ------------------------------------------------------------- metadata I/O
    def _catalog_record(self) -> Dict:
        return {
            "attrs": self.attrs,
            "datasets": {
                name: ds.to_record() for name, ds in self.datasets.items()
            },
        }

    def flush(self) -> Generator:
        """Task helper: persist the catalog through the connector
        (rank 0 writes it in native parallel files)."""
        if not self._open:
            raise H5Error("file not open")
        if not self._dirty:
            return None
        yield from self.vol.flush_meta(self)
        self._dirty = False
        return None

    def sync(self) -> Generator:
        """Task helper: durability barrier for raw data."""
        yield from self.vol.sync()
        return None

    def close(self) -> Generator:
        """Task helper: flush and release."""
        yield from self.flush()
        yield from self.vol.close_file(self)
        self._open = False
        return None
