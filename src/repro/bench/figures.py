"""Regeneration of every figure in the paper (+ the contrast claim).

Figure 1 (file-per-process, "easy"): read (a) and write (b) bandwidth vs
client nodes, one series per (interface x object class) — interfaces
DFS (native), MPI-IO over DFuse, HDF5 over DFuse; classes S1, S2, SX.

Figure 2 (single shared file, "hard"): read (a) and write (b) bandwidth
vs client nodes, one series per interface, object class SX.

Section-IV contrast: DAOS shared-file ≈ file-per-process, "in stark
contrast" to a standard parallel filesystem — measured by running the
same two workloads on the Lustre baseline.

``benchmarks/run_figures.py`` passes ``QUICK_NODE_COUNTS`` and 16 MiB
blocks, or with ``--full`` ``FULL_NODE_COUNTS`` and 64 MiB blocks, the
paper-scale sweep behind EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.bench.sweep import FigureData, Series
from repro.cluster import build_lustre_cluster, nextgenio
from repro.ior import IorParams, run_ior

FULL_NODE_COUNTS: Tuple[int, ...] = (1, 2, 4, 8, 16)
QUICK_NODE_COUNTS: Tuple[int, ...] = (1, 4)

FIG1_INTERFACES = ("DFS", "MPIIO", "HDF5")
FIG1_OCLASSES = ("S1", "S2", "SX")
FIG2_INTERFACES = ("DFS", "MPIIO", "HDF5")
#: processes per client node, as on the paper's testbed
PPN = 16
#: client nodes of each contrast cell
CONTRAST_NODES = 4


def _series_label(api: str, oclass: Optional[str] = None) -> str:
    name = {"DFS": "DAOS", "MPIIO": "MPI-IO", "HDF5": "HDF5"}[api]
    return f"{name} {oclass}" if oclass else name


def _ior_sweep(figure_id: str, title: str, series, node_counts,
               **common) -> Tuple[FigureData, FigureData]:
    """The one loop behind both IOR figures; returns (read, write).

    ``series`` is ``(label, IorParams keywords)`` pairs, one curve each;
    every point runs on a fresh testbed, ``PPN`` processes per node, with
    1 MiB transfers plus the ``common`` keywords. ``title`` has one ``{}``
    for the phase name.
    """
    read_fig = FigureData(f"{figure_id}a", title.format("read"),
                          "nodes", "bandwidth")
    write_fig = FigureData(f"{figure_id}b", title.format("write"),
                           "nodes", "bandwidth")
    for label, keywords in series:
        read_series = Series(label)
        write_series = Series(label)
        for nodes in node_counts:
            params = IorParams(transfer_size="1m", **keywords, **common)
            result = run_ior(nextgenio(client_nodes=nodes), params, ppn=PPN)
            read_series.add(nodes, result.max_read_bw)
            write_series.add(nodes, result.max_write_bw)
        read_fig.series.append(read_series)
        write_fig.series.append(write_series)
    return read_fig, write_fig


def fig1_fpp(
    node_counts: Iterable[int], block_size
) -> Tuple[FigureData, FigureData]:
    """Returns (fig1a_read, fig1b_write)."""
    return _ior_sweep(
        "Fig 1", "IOR file-per-process: {}",
        [(_series_label(api, oclass), dict(api=api, oclass=oclass))
         for api in FIG1_INTERFACES for oclass in FIG1_OCLASSES],
        node_counts, file_per_proc=True, block_size=block_size,
    )


def fig2_shared(
    node_counts: Iterable[int], block_size
) -> Tuple[FigureData, FigureData]:
    """Returns (fig2a_read, fig2b_write)."""
    return _ior_sweep(
        "Fig 2", "IOR shared-file: {}",
        [(_series_label(api), dict(api=api)) for api in FIG2_INTERFACES],
        node_counts, file_per_proc=False, oclass="SX",
        block_size=block_size,
    )


def lustre_contrast(block_size) -> Dict[str, float]:
    """The §IV/§V claim: DAOS shared ≈ DAOS fpp; Lustre shared << fpp.

    Returns write bandwidths (bytes/s) for the four cells, each on
    ``CONTRAST_NODES`` client nodes. The Lustre
    shared-file run uses the io500-hard-style unaligned interleaved
    layout, where page-granular LDLM extent locks conflict on every
    operation; DAOS is byte-granular and lockless, so the same workload
    does not collapse.
    """
    daos = nextgenio(client_nodes=CONTRAST_NODES)
    out: Dict[str, float] = {}
    params = IorParams(api="DFS", file_per_proc=True, oclass="SX",
                       block_size=block_size, transfer_size="1m")
    out["daos_fpp_write"] = run_ior(daos, params, ppn=PPN).max_write_bw
    daos = nextgenio(client_nodes=CONTRAST_NODES)
    params = IorParams(api="DFS", file_per_proc=False, oclass="SX",
                       interleaved=True, block_size=block_size,
                       transfer_size="1m")
    out["daos_shared_write"] = run_ior(daos, params, ppn=PPN).max_write_bw

    lustre = build_lustre_cluster(server_nodes=8,
                                  client_nodes=CONTRAST_NODES, stripe_count=8)
    params = IorParams(api="POSIX", file_per_proc=True,
                       block_size=block_size, transfer_size="1m")
    out["lustre_fpp_write"] = run_ior(lustre, params, ppn=PPN).max_write_bw
    lustre = build_lustre_cluster(server_nodes=8,
                                  client_nodes=CONTRAST_NODES, stripe_count=8)
    # unaligned interleaved transfers: the LDLM worst case. The block
    # must stay a multiple of the transfer, so derive it from the
    # requested block size.
    from repro.units import parse_size

    hard_xfer = 1000 * 1000  # 1 MB: page-sharing neighbours
    nblk = parse_size(block_size)
    nblk -= nblk % hard_xfer
    params = IorParams(api="POSIX", file_per_proc=False, interleaved=True,
                       block_size=nblk, transfer_size=hard_xfer)
    out["lustre_shared_write"] = run_ior(lustre, params, ppn=PPN).max_write_bw
    return out
