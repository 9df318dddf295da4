"""Virtual Object Layer: how HDF5-lite *objects* reach storage.

The VFD seam (:mod:`repro.hdf5.vfd`) swaps the byte transport under one
on-disk file format. The VOL seam sits one level higher — it swaps the
*storage model* itself, mirroring HDF5 1.12's VOL plugin architecture:

- :class:`NativeVol` is the native-format connector: superblock +
  catalog frames and address-allocated raw data, written through any
  :class:`~repro.hdf5.vfd.Vfd` (``sec2`` or ``mpio``). It is exactly the
  paper's HDF5 path, factored out of ``H5File``/``Dataset``.
- :class:`DaosVol` is the DAOS connector (the HDF Group's daos-vol,
  PAPERS.md "DAOS for Extreme-scale Systems in Scientific
  Applications"): each dataset's raw data is a :class:`DaosArray`, file
  and dataset metadata are :class:`DaosKV` records, and a container-wide
  namespace KV at a reserved OID maps paths to file roots. No DFuse
  mount, no HDF5 on-disk format, no staging — raw I/O goes straight to
  the object layer, so nothing is staged and concurrent dataset I/O
  pipelines like any native-object workload.

One VOL instance backs one open file: it owns the transient connector
state (the native allocator's EOF, the DAOS handles), matching how a
VFD instance owns one file handle.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.daos.vos.payload import ZeroPayload, concat_payloads
from repro.errors import ReproError
from repro.hdf5.format import (
    SUPERBLOCK_SIZE,
    pack_catalog,
    pack_superblock,
    unpack_catalog,
    unpack_superblock,
)
from repro.hdf5.vfd import MpioVfd, Vfd
from repro.units import MiB

#: generous fixed region after the superblock reserved for the catalog;
#: real HDF5 interleaves metadata with data, which is exactly why its
#: default layout leaves raw data unaligned — we reproduce that by
#: starting raw data right after this (odd-sized) region when
#: ``alignment`` is 1.
CATALOG_REGION = 64 * 1024 - 512 - 37

#: reserved OID lo for the DAOS VOL's path->file-root namespace KV
#: (lo=2 is the IOR DAOS backend's catalog; both sit below the range
#: the container's OID allocator hands out)
NAMESPACE_LO = 3


class H5Error(ReproError):
    pass


class Vol:
    """Storage-connector interface used by :class:`~repro.hdf5.file.H5File`.

    All ``*_file``/``dataset_*``/``flush_meta``/``sync`` methods are task
    helpers. A connector instance backs exactly one open file.
    """

    #: connector label used in spans/metrics (``hdf5.*{vol=...}``)
    kind = "?"

    #: the underlying VFD when the connector has one (native only)
    vfd: Optional[Vfd] = None

    def create_file(self, h5, path: str) -> Generator:
        """Create/truncate the file's storage-side objects."""
        raise NotImplementedError

    def open_file(self, path: str) -> Generator:
        """Open an existing file; returns the catalog record
        ``{"alignment", "datasets"}``."""
        raise NotImplementedError

    def dataset_added(self, h5, dataset) -> Generator:
        """Bind storage to a freshly defined dataset (sets its layout)."""
        raise NotImplementedError

    def dataset_write(self, h5, dataset, offset, payload) -> Generator:
        raise NotImplementedError

    def dataset_read(self, h5, dataset, offset, nbytes) -> Generator:
        raise NotImplementedError

    def flush_meta(self, h5) -> Generator:
        """Persist the file's metadata (catalog equivalent)."""
        raise NotImplementedError

    def sync(self) -> Generator:
        """Durability barrier for raw data (fsync equivalent)."""
        raise NotImplementedError

    def close_file(self, h5) -> Generator:
        raise NotImplementedError


class NativeVol(Vol):
    """The native HDF5-lite format over a VFD (the paper's HDF5 path)."""

    kind = "native"

    def __init__(self, vfd: Vfd):
        self.vfd = vfd
        self._eof = SUPERBLOCK_SIZE + CATALOG_REGION

    # ------------------------------------------------------------- lifecycle
    def create_file(self, h5, path: str) -> Generator:
        yield from self.vfd.open(path, create=True, trunc=True)
        return None

    def open_file(self, path: str) -> Generator:
        yield from self.vfd.open(path, create=False, trunc=False)
        raw = yield from self.vfd.read_meta(0, SUPERBLOCK_SIZE)
        record = unpack_superblock(raw.materialize())
        self._eof = record["eof"]
        catalog: Dict = {}
        if record["catalog_len"]:
            raw_catalog = yield from self.vfd.read_meta(
                record["catalog_addr"], record["catalog_len"]
            )
            catalog = unpack_catalog(raw_catalog.materialize())
        return {
            "alignment": record["alignment"],
            "datasets": catalog.get("datasets", {}),
        }

    def flush_meta(self, h5) -> Generator:
        frame = pack_catalog(h5._catalog_record())
        if len(frame) > CATALOG_REGION:
            raise H5Error("catalog overflow (too many datasets)")
        is_mpio = isinstance(self.vfd, MpioVfd)
        writer = (not is_mpio) or self.vfd.ctx.rank == 0
        if writer:
            yield from self.vfd.write_meta(SUPERBLOCK_SIZE, frame)
            yield from self.vfd.write_meta(
                0,
                pack_superblock(
                    SUPERBLOCK_SIZE, len(frame), self._eof, h5.alignment
                ),
            )
        if is_mpio:
            yield from self.vfd.ctx.barrier()
        return None

    def sync(self) -> Generator:
        yield from self.vfd.sync()
        return None

    def close_file(self, h5) -> Generator:
        yield from self.vfd.close()
        return None

    def data_aligned(self, h5) -> bool:
        """Whether raw transfers skip client-side staging: iff the
        alignment property covers the storage's preferred I/O size (the
        A4 ablation knob)."""
        return h5.alignment >= self.vfd.preferred_io

    # ------------------------------------------------------------- allocator
    def _alloc_raw(self, h5, nbytes: int) -> int:
        addr = self._eof
        if h5.alignment > 1 and addr % h5.alignment:
            addr += h5.alignment - addr % h5.alignment
        self._eof = addr + nbytes
        return addr

    # ------------------------------------------------------------- datasets
    def dataset_added(self, h5, dataset) -> Generator:
        dataset.layout = {
            "kind": "contiguous",
            "addr": self._alloc_raw(h5, dataset.nbytes),
        }
        return None
        yield  # pragma: no cover - marks this as a (zero-hop) task helper

    def dataset_write(self, h5, dataset, offset, payload) -> Generator:
        yield from self.vfd.write_raw(
            dataset.layout["addr"] + offset, payload, self.data_aligned(h5)
        )
        return payload.nbytes

    def dataset_read(self, h5, dataset, offset, nbytes) -> Generator:
        part = yield from self.vfd.read_raw(
            dataset.layout["addr"] + offset, nbytes, self.data_aligned(h5)
        )
        if part.nbytes < nbytes:  # sparse region past EOF
            part = concat_payloads([part, ZeroPayload(nbytes - part.nbytes)])
        return part


class DaosVol(Vol):
    """The DAOS connector: HDF5 objects mapped straight onto DAOS objects.

    File layout in the container:

    - a namespace KV at the reserved OID ``(S1, lo=NAMESPACE_LO)``
      mapping file paths to per-file root-KV OIDs;
    - per file, a *root KV* holding the ``file`` record (the alignment
      property) and one ``ds:<name>`` record per dataset (its
      :meth:`~repro.hdf5.dataset.Dataset.to_record`: the byte extent
      and the backing array's OID);
    - per dataset, a byte :class:`DaosArray` holding the raw data at
      the dataset's own byte offsets. Unwritten extents read back as
      zeros — the object layer's hole semantics double as the HDF5
      fill value.
    """

    kind = "daos"

    def __init__(self, cont, oclass=None, chunk_bytes: int = MiB):
        self.cont = cont
        self.oclass = oclass
        self.chunk_bytes = chunk_bytes
        self._root = None  # DaosKV of the open file
        self._arrays: Dict[str, object] = {}

    # ------------------------------------------------------------- plumbing
    def _ns(self):
        from repro.daos.kv import DaosKV
        from repro.daos.objid import ObjId
        from repro.daos.oclass import S1

        return DaosKV.open(self.cont, ObjId.generate(S1, lo=NAMESPACE_LO))

    # ------------------------------------------------------------- lifecycle
    def create_file(self, h5, path: str) -> Generator:
        from repro.daos.kv import DaosKV
        from repro.daos.objid import ObjId

        ns = self._ns()
        old = yield from ns.get(path, default=None)
        if old is not None:  # truncate semantics: drop the old file
            yield from _punch_file(self.cont, ObjId(old[0], old[1]))
        root = yield from DaosKV.create(self.cont, self.oclass)
        yield from ns.put(path, [root.oid.hi, root.oid.lo])
        ns.close()
        self._root = root
        return None

    def open_file(self, path: str) -> Generator:
        from repro.daos.kv import DaosKV
        from repro.daos.objid import ObjId

        ns = self._ns()
        hi_lo = yield from ns.get(path)  # DerNonexist when absent
        ns.close()
        root = DaosKV.open(self.cont, ObjId(hi_lo[0], hi_lo[1]))
        self._root = root
        meta = yield from root.get("file")
        datasets: Dict[str, Dict] = {}
        for key in (yield from root.scan("ds:")):
            datasets[key[3:]] = yield from root.get(key)
        return {"alignment": meta["alignment"], "datasets": datasets}

    def flush_meta(self, h5) -> Generator:
        yield from self._root.put("file", {"alignment": h5.alignment})
        for name, dataset in h5.datasets.items():
            yield from self._root.put("ds:" + name, dataset.to_record())
        return None

    def sync(self) -> Generator:
        # DAOS updates are persistent on completion; nothing to flush.
        yield 0.0
        return None

    def close_file(self, h5) -> Generator:
        for array in self._arrays.values():
            array.close()
        self._arrays.clear()
        if self._root is not None:
            self._root.close()
            self._root = None
        yield 0.0
        return None

    # ------------------------------------------------------------- datasets
    def dataset_added(self, h5, dataset) -> Generator:
        from repro.daos.array import DaosArray

        array = yield from DaosArray.create(
            self.cont, self.chunk_bytes, oclass=self.oclass
        )
        dataset.layout = {
            "kind": "daos-array", "oid": [array.obj.oid.hi, array.obj.oid.lo],
        }
        self._arrays[dataset.name] = array
        return None

    def _array(self, dataset) -> Generator:
        from repro.daos.array import DaosArray
        from repro.daos.objid import ObjId

        array = self._arrays.get(dataset.name)
        if array is None:
            hi, lo = dataset.layout["oid"]
            array = yield from DaosArray.open(self.cont, ObjId(hi, lo))
            self._arrays[dataset.name] = array
        return array

    def dataset_write(self, h5, dataset, offset, payload) -> Generator:
        array = yield from self._array(dataset)
        yield from array.write(offset, payload)
        return payload.nbytes

    def dataset_read(self, h5, dataset, offset, nbytes) -> Generator:
        array = yield from self._array(dataset)
        # the object layer zero-fills holes, so fill value is free
        return (yield from array.read(offset, nbytes))


def _punch_file(cont, root_oid) -> Generator:
    """Punch one file's arrays and root KV (given the root's OID)."""
    from repro.daos.kv import DaosKV
    from repro.daos.objid import ObjId

    root = DaosKV.open(cont, root_oid)
    for key in (yield from root.scan("ds:")):
        record = yield from root.get(key)
        obj = cont.open_object(ObjId(*record["layout"]["oid"]))
        yield from obj.punch_object()
        obj.close()
    yield from root.obj.punch_object()
    root.close()
    return None

