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

from typing import Dict, Generator

from repro.hdf5.dataset import Dataset
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
        for name, ds_record in record["datasets"].items():
            h5.datasets[name] = Dataset.from_record(h5, name, ds_record)
        h5._open = True
        return h5

    # ------------------------------------------------------------- datasets
    def create_dataset(self, name: str, nbytes: int) -> Generator:
        """Task helper (collective in parallel files): define a
        contiguous dataset of ``nbytes`` bytes."""
        if not self._open:
            raise H5Error("file not open")
        if name in self.datasets:
            raise H5Error(f"dataset {name!r} exists")
        if nbytes <= 0:
            raise ValueError(f"bad dataset size {nbytes}")
        dataset = Dataset(self, name, nbytes, {})
        yield from self.vol.dataset_added(self, dataset)
        self.datasets[name] = dataset
        self._dirty = True
        yield 0.0
        return dataset

    def dataset(self, name: str) -> Dataset:
        try:
            return self.datasets[name]
        except KeyError:
            raise H5Error(f"no dataset {name!r}") from None

    # ------------------------------------------------------------- metadata I/O
    def _catalog_record(self) -> Dict:
        # native frames keep HDF5's (empty) file-attribute table
        return {
            "attrs": {},
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
