"""Datasets: one contiguous run of bytes, stored by the file's VOL.

A dataset is what IOR's HDF5 backends create: ``nbytes`` bytes
addressed by byte offset. The dataset owns its extent and the
storage-assigned layout record; where the bytes land is the connector's
business (:mod:`repro.hdf5.vol`): one run of file addresses in the
native layout, one byte array object under the DAOS connector. Every
read or write is one contiguous transfer.
"""

from __future__ import annotations

from typing import Dict, Generator

from repro.daos.vos.payload import as_payload


class Dataset:
    """An open dataset inside an :class:`~repro.hdf5.file.H5File`."""

    def __init__(self, file, name: str, nbytes: int, layout: Dict):
        self.file = file
        self.name = name
        self.nbytes = nbytes
        self.layout = layout

    # ------------------------------------------------------------- records
    def to_record(self) -> Dict:
        # the HDF5 header fields of a 1-D byte dataset with no attributes
        return {
            "space": [self.nbytes],
            "dtype": "u1",
            "layout": self.layout,
            "attrs": {},
        }

    @classmethod
    def from_record(cls, file, name: str, record: Dict) -> "Dataset":
        (nbytes,) = record["space"]
        return cls(file, name, nbytes, record["layout"])

    def _check_extent(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes <= 0 or offset + nbytes > self.nbytes:
            raise ValueError(
                f"selection [{offset}, {offset + nbytes}) outside extent "
                f"{self.nbytes}"
            )

    # ------------------------------------------------------------- I/O
    def write(self, offset: int, data) -> Generator:
        """Task helper: write ``data`` at byte ``offset``."""
        payload = as_payload(data)
        self._check_extent(offset, payload.nbytes)
        return (
            yield from self.file.vol.dataset_write(
                self.file, self, offset, payload
            )
        )

    def read(self, offset: int, nbytes: int) -> Generator:
        """Task helper: read ``nbytes`` bytes at byte ``offset``."""
        self._check_extent(offset, nbytes)
        return (
            yield from self.file.vol.dataset_read(
                self.file, self, offset, nbytes
            )
        )
