"""Datasets: hyperslab-addressed arrays, stored by the file's VOL.

The dataset owns the *logical* description (dataspace, datatype, attrs)
and the storage-assigned layout record; how a hyperslab maps to bytes on
storage is the connector's business (:mod:`repro.hdf5.vol`): native
layouts are contiguous or chunked-along-axis-0 file addresses, the DAOS
connector maps element runs straight onto a byte array object.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Sequence

from repro.daos.vos.payload import as_payload
from repro.hdf5.dataspace import Dataspace
from repro.hdf5.datatype import Datatype


class Dataset:
    """An open dataset inside an :class:`~repro.hdf5.file.H5File`."""

    def __init__(
        self,
        file,
        name: str,
        space: Dataspace,
        dtype: Datatype,
        layout: Dict,
        attrs: Optional[Dict] = None,
    ):
        self.file = file
        self.name = name
        self.space = space
        self.dtype = dtype
        self.layout = layout
        self.attrs = attrs if attrs is not None else {}

    # ------------------------------------------------------------- records
    def to_record(self) -> Dict:
        return {
            "space": self.space.to_record(),
            "dtype": self.dtype.to_record(),
            "layout": self.layout,
            "attrs": self.attrs,
        }

    @classmethod
    def from_record(cls, file, name: str, record: Dict) -> "Dataset":
        return cls(
            file,
            name,
            Dataspace.from_record(record["space"]),
            Datatype.from_record(record["dtype"]),
            record["layout"],
            record.get("attrs", {}),
        )

    # ------------------------------------------------------------- helpers
    @property
    def nbytes(self) -> int:
        return self.space.n_elements * self.dtype.itemsize

    # ------------------------------------------------------------- I/O
    def write(
        self, start: Sequence[int], count: Sequence[int], data
    ) -> Generator:
        """Task helper: write a hyperslab (row-major source payload)."""
        payload = as_payload(data)
        expected = self.space.selection_elements(count) * self.dtype.itemsize
        if payload.nbytes != expected:
            raise ValueError(
                f"payload is {payload.nbytes} B, selection needs {expected} B"
            )
        return (
            yield from self.file.vol.dataset_write(
                self.file, self, start, count, payload
            )
        )

    def read(self, start: Sequence[int], count: Sequence[int]) -> Generator:
        """Task helper: read a hyperslab; returns a row-major payload."""
        return (
            yield from self.file.vol.dataset_read(
                self.file, self, start, count
            )
        )
