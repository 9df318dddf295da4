"""IOR parameters (the subset of the real tool's options we exercise).

The set of valid ``-a`` apis and the per-api constraints (collective-
capable, async-capable) are not spelled out here: they come from the
capability flags of the backends in the :mod:`repro.ior.backends`
table, which also gives the CLI choices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.daos.vos.ec import cell_len
from repro.daos.oclass import oclass_by_name
from repro.units import MiB, parse_size

#: working directory inside the filesystem under test
TEST_DIR = "/ior"
#: ``-O KEY=VALUE`` keys, each an :class:`IorParams` field of the same name
OPTIONS = ("oclass", "chunk_size", "cb_buffer")


@dataclass
class IorParams:
    """One IOR invocation's workload description."""

    #: -a: any api in the backend table (POSIX | DFS | MPIIO | HDF5 | DAOS |
    #: HDF5-DAOS out of the box)
    api: str = "DFS"
    #: -b: contiguous bytes each process writes per segment
    block_size: Union[int, str] = "16m"
    #: -t: bytes per I/O call
    transfer_size: Union[int, str] = "1m"
    #: -s: number of segments (shared file: segments interleave blocks)
    segments: int = 1
    #: -F: file per process ("easy"); False = single shared file ("hard")
    file_per_proc: bool = False
    #: interleave at transfer granularity inside a segment (io500-hard
    #: style layout) instead of IOR's default segmented layout
    interleaved: bool = False
    #: -c: use collective MPI-IO calls (MPIIO/HDF5 shared-file runs)
    collective: bool = False
    #: -e: fsync after the write phase
    fsync: bool = False
    #: -C: read phase reads the data written by rank+1 (defeats locality)
    reorder_tasks: bool = True
    #: -w / -r
    write: bool = True
    read: bool = True
    #: -R: verify contents during the read phase
    verify: bool = False
    #: -i: repetitions; the report keeps all and summarizes the max
    repetitions: int = 1
    #: DAOS object class for created files/objects (None = container default)
    oclass: Optional[str] = None
    #: DFS chunk size for created files (also the DAOS-VOL array chunk)
    chunk_size: Union[int, str] = MiB
    #: collective-buffering aggregate size per underlying call (ROMIO's
    #: cb_buffer_size; MPIIO/HDF5 collective runs only)
    cb_buffer: Union[int, str] = 16 * MiB
    #: client-side caching tier: none | readonly | writeback
    #: (dfuse --enable-caching / --enable-wb-cache analogue)
    cache_mode: str = "none"
    #: async I/O queue depth (the daos_event_t / event-queue dimension):
    #: 0 = the classic blocking loop, one transfer at a time; N >= 1
    #: routes each transfer through an event queue that keeps up to N
    #: operations in flight per rank. Depth 1 reproduces the blocking
    #: timings exactly; depth > 1 needs an async-capable api (DFS, DAOS).
    aio_queue_depth: int = 0

    def __post_init__(self) -> None:
        # resolved lazily so config stays importable without the backends
        from repro.ior.backends import available_apis, backend_class

        backend = backend_class(self.api)  # unknown api -> ValueError
        # unknown class -> DerInval; only erasure-coded classes bound sizes
        oclass = None if self.oclass is None else oclass_by_name(self.oclass)
        ec = oclass if oclass is not None and oclass.is_ec else None
        if self.cache_mode not in ("none", "readonly", "writeback"):
            raise ValueError(
                "cache_mode must be none, readonly or writeback, "
                f"got {self.cache_mode!r}"
            )
        self.block_size = parse_size(self.block_size)
        self.transfer_size = parse_size(self.transfer_size)
        self.chunk_size = parse_size(self.chunk_size)
        self.cb_buffer = parse_size(self.cb_buffer)
        if self.block_size <= 0 or self.transfer_size <= 0:
            raise ValueError("block and transfer sizes must be positive")
        if self.block_size % self.transfer_size:
            raise ValueError(
                f"block size {self.block_size} is not a multiple of the "
                f"transfer size {self.transfer_size}"
            )
        if self.segments <= 0 or self.repetitions <= 0:
            raise ValueError("segments and repetitions must be positive")
        if self.cb_buffer <= 0:
            raise ValueError("cb_buffer must be positive")
        if self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if ec:
            cell_len(self.chunk_size, ec.ec_k)  # DerInval unless divisible
        # full-stripe writes only (DESIGN.md §7.3)
        if ec and self.transfer_size % self.chunk_size:
            raise ValueError(
                f"{ec.name} needs stripe-aligned writes: transfer size "
                f"{self.transfer_size} is not a multiple of chunk_size "
                f"{self.chunk_size}"
            )
        if self.collective and not backend.supports_collective:
            capable = tuple(
                api for api in available_apis()
                if backend_class(api).supports_collective
            )
            raise ValueError(
                f"collective I/O requires a collective-capable api "
                f"{capable}, got {self.api}"
            )
        if self.interleaved and self.file_per_proc:
            raise ValueError("interleaved layout applies to shared files")
        if self.aio_queue_depth < 0:
            raise ValueError("aio_queue_depth must be >= 0")
        if self.aio_queue_depth > 1 and not backend.supports_async:
            capable = tuple(
                api for api in available_apis()
                if backend_class(api).supports_async
            )
            raise ValueError(
                f"async pipelining (aio_queue_depth > 1) requires an "
                f"async-capable api {capable}, got {self.api}"
            )
        if self.aio_queue_depth > 1 and self.cache_mode != "none":
            raise ValueError(
                "async pipelining bypasses the caching tier; use "
                "cache_mode='none' with aio_queue_depth > 1"
            )
        backend.check_params(self)

    @property
    def transfers_per_block(self) -> int:
        return self.block_size // self.transfer_size

    def bytes_per_rank(self) -> int:
        return self.block_size * self.segments

    def total_bytes(self, nprocs: int) -> int:
        return self.bytes_per_rank() * nprocs

    def file_path(self, rank: int) -> str:
        if self.file_per_proc:
            return f"{TEST_DIR}/testFile.{rank:08d}"
        return f"{TEST_DIR}/testFile"

    def offset(self, nprocs: int, rank: int, segment: int, transfer: int) -> int:
        """File offset of one transfer, matching IOR's layouts."""
        if self.file_per_proc:
            return segment * self.block_size + transfer * self.transfer_size
        if self.interleaved:
            per_seg = self.transfers_per_block
            index = (segment * per_seg + transfer) * nprocs + rank
            return index * self.transfer_size
        return (
            segment * nprocs * self.block_size
            + rank * self.block_size
            + transfer * self.transfer_size
        )

    def cli(self) -> str:
        """The ``repro-ior`` flags that rebuild these parameters (for
        reports); the cluster geometry is not part of them."""
        parts = [
            "ior",
            f"-a {self.api}",
            f"-b {self.block_size}",
            f"-t {self.transfer_size}",
            f"-s {self.segments}",
            f"-i {self.repetitions}",
        ]
        flags = {"-F": self.file_per_proc, "--interleaved": self.interleaved,
                 "-c": self.collective, "-e": self.fsync,
                 "-C" if self.reorder_tasks else "--no-reorder": True,
                 # no phase flag runs both phases
                 "-w": not self.read, "-r": not self.write, "-R": self.verify}
        parts.extend(flag for flag, on in flags.items() if on)
        # -O for each option off its default (the class attribute)
        parts.extend(f"-O {key}={getattr(self, key)}" for key in OPTIONS
                     if getattr(self, key) != getattr(IorParams, key))
        if self.cache_mode != "none":
            parts.append(f"--cache-mode {self.cache_mode}")
        if self.aio_queue_depth > 0:
            parts.append(f"--aio-depth {self.aio_queue_depth}")
        return " ".join(parts)
