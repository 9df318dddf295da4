"""Regeneration of every figure in the paper (+ the contrast claim).

Figure 1 (file-per-process, "easy"): read (a) and write (b) bandwidth vs
client nodes, one series per (interface x object class) — interfaces
DFS (native), MPI-IO over DFuse, HDF5 over DFuse; classes S1, S2, SX.

Figure 2 (single shared file, "hard"): read (a) and write (b) bandwidth
vs client nodes, one series per interface, object class SX.

Section-IV contrast: DAOS shared-file ≈ file-per-process, "in stark
contrast" to a standard parallel filesystem — measured by running the
same two workloads on the Lustre baseline.

Scale knobs: ``node_counts`` and ``block_size`` default to a quick
configuration; pass ``FULL_NODE_COUNTS`` / 64 MiB blocks (or run
``benchmarks/run_figures.py --full``) for the paper-scale sweep.
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


def _series_label(api: str, oclass: Optional[str] = None) -> str:
    name = {"DFS": "DAOS", "MPIIO": "MPI-IO", "HDF5": "HDF5",
            "POSIX": "POSIX", "DAOS": "DAOS-array"}[api]
    return f"{name} {oclass}" if oclass else name


def _ior_sweep(figure_id: str, title: str, xlabel: str, series, xs,
               ppn: int, cell) -> Tuple[FigureData, FigureData]:
    """The one loop behind every IOR figure; returns (read, write).

    ``series`` is ``(label, key)`` pairs, one curve each; ``cell(key, x)``
    boots the point at ``x`` on that curve and returns its ``(cluster,
    IorParams keywords)``. Transfers are 1 MiB throughout. ``title`` has
    one ``{}`` for the phase name.
    """
    read_fig = FigureData(f"{figure_id}a", title.format("read"),
                          xlabel, "bandwidth")
    write_fig = FigureData(f"{figure_id}b", title.format("write"),
                           xlabel, "bandwidth")
    for label, key in series:
        read_series = Series(label)
        write_series = Series(label)
        for x in xs:
            cluster, overrides = cell(key, x)
            params = IorParams(transfer_size="1m", **overrides)
            result = run_ior(cluster, params, ppn=ppn)
            read_series.add(x, result.max_read_bw)
            write_series.add(x, result.max_write_bw)
        read_fig.series.append(read_series)
        write_fig.series.append(write_series)
    return read_fig, write_fig


def fig1_fpp(
    node_counts: Iterable[int] = QUICK_NODE_COUNTS,
    block_size="16m",
    ppn: int = 16,
    repetitions: int = 1,
    interfaces: Iterable[str] = FIG1_INTERFACES,
    oclasses: Iterable[str] = FIG1_OCLASSES,
) -> Tuple[FigureData, FigureData]:
    """Returns (fig1a_read, fig1b_write)."""
    oclasses = tuple(oclasses)
    return _ior_sweep(
        "Fig 1", "IOR file-per-process: {}", "client nodes",
        [(_series_label(api, oclass), (api, oclass))
         for api in interfaces for oclass in oclasses],
        node_counts, ppn,
        lambda key, nodes: (nextgenio(client_nodes=nodes), dict(
            api=key[0], oclass=key[1], file_per_proc=True,
            block_size=block_size, repetitions=repetitions,
        )),
    )


def fig2_shared(
    node_counts: Iterable[int] = QUICK_NODE_COUNTS,
    block_size="16m",
    ppn: int = 16,
    repetitions: int = 1,
    interfaces: Iterable[str] = FIG2_INTERFACES,
    oclass: str = "SX",
) -> Tuple[FigureData, FigureData]:
    """Returns (fig2a_read, fig2b_write)."""
    return _ior_sweep(
        "Fig 2", "IOR shared-file: {}", "client nodes",
        [(_series_label(api), api) for api in interfaces],
        node_counts, ppn,
        lambda api, nodes: (nextgenio(client_nodes=nodes), dict(
            api=api, oclass=oclass, file_per_proc=False,
            block_size=block_size, repetitions=repetitions,
        )),
    )


def cache_fpp_sweep(
    node_counts: Iterable[int] = (1, 4, 8),
    modes: Iterable[str] = ("none", "readonly", "writeback"),
    block_size="4m",
    ppn: int = 4,
    api: str = "POSIX",
) -> Tuple[FigureData, FigureData]:
    """Fig-1-style FPP sweep over the client cache modes.

    One series per cache mode, DFuse (POSIX api) file-per-process —
    the workload the caching tier targets. Returns (read, write)
    FigureData at each client-node count.
    """
    return _ior_sweep(
        "Cache 1", f"IOR fpp over {api}: {{}} by cache mode", "client nodes",
        [(mode, mode) for mode in modes],
        node_counts, ppn,
        lambda mode, nodes: (nextgenio(client_nodes=nodes), dict(
            api=api, oclass="SX", file_per_proc=True,
            block_size=block_size, cache_mode=mode,
        )),
    )


def async_depth_sweep(
    depths: Iterable[int] = (0, 1, 2, 4, 8, 16),
    apis: Iterable[str] = ("DFS", "DAOS"),
    nodes: int = 1,
    block_size="4m",
    ppn: int = 4,
    oclass: str = "SX",
) -> Tuple[FigureData, FigureData]:
    """Throughput vs event-queue depth (``aio_queue_depth``).

    One series per async-capable api, file-per-process at a low client
    count — the latency-bound regime where pipelining pays. Depth 0 is
    the blocking loop and depth 1 must reproduce it exactly (the eq
    byte-identity invariant), so the curve's first two points coincide
    by construction. Returns (read, write) FigureData keyed on depth.
    """
    return _ior_sweep(
        "Async 1", "IOR fpp: {} by queue depth", "aio queue depth",
        [(_series_label(api), api) for api in apis],
        depths, ppn,
        lambda api, depth: (nextgenio(client_nodes=nodes), dict(
            api=api, oclass=oclass, file_per_proc=True,
            block_size=block_size, aio_queue_depth=depth,
        )),
    )


def _open_rebuild_window(cluster, window_bytes: int) -> int:
    """Exclude one replica target, write ``window_bytes`` it misses and
    reintegrate — returning with the background resync still draining, so
    the caller's workload races real rebuild traffic."""
    from repro.daos.oclass import RP_2G1
    from repro.daos.vos.payload import PatternPayload
    from repro.units import MiB

    client = cluster.new_client(0)

    def go():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("rebuild-window",
                                                oclass="RP_2G1")
        oid = yield from cont.alloc_oid(RP_2G1)
        obj = cont.open_object(oid)
        victim = obj.layout.targets_for_dkey(0)[0]
        uuid = pool.pool_map.uuid
        yield from cluster.daos.exclude_target(uuid, victim)
        yield from pool.refresh_map()
        yield from obj.write(
            0, PatternPayload(seed=8, origin=0, nbytes=window_bytes),
            chunk_size=MiB,
        )
        yield from cluster.daos.reintegrate_target(uuid, victim)
        obj.close()
        return victim

    return cluster.run(go())


def rebuild_fpp_sweep(
    fractions: Iterable[float] = (0.05, 0.25, 1.0),
    nodes: int = 2,
    window="128m",
    block_size="4m",
    ppn: int = 4,
    api: str = "POSIX",
    oclass: str = "RP_2GX",
) -> Tuple[FigureData, FigureData]:
    """IOR FPP bandwidth while a rebuild drains, by throttle fraction.

    Each "during rebuild" point boots a fresh cluster, opens a
    ``window``-sized exclusion window on one replica target,
    reintegrates, and runs IOR while the resync migrates the window —
    so foreground I/O and rebuild traffic compete for the same media
    and fabric links under the given throttle fraction. The "healthy"
    series is the no-fault baseline, identical at every x (and, by the
    zero-cost-when-healthy invariant, identical to the seed figures).

    The foreground files are replicated (``RP_2GX``): chunks written to
    the still-REBUILDING target must stay readable through the other
    replica, which an unreplicated class cannot provide mid-rebuild.
    Returns (read, write) FigureData.
    """
    from repro.units import parse_size

    window_bytes = parse_size(window)

    def cell(racing: bool, fraction: float):
        cluster = nextgenio(client_nodes=nodes)
        if racing:
            cluster.daos.rebuild.throttle.fraction = fraction
            _open_rebuild_window(cluster, window_bytes)
        return cluster, dict(api=api, oclass=oclass, file_per_proc=True,
                             block_size=block_size)

    return _ior_sweep(
        "Rebuild 1", f"IOR fpp over {api}: {{}} during rebuild",
        "rebuild throttle fraction",
        [("healthy", False), ("during rebuild", True)],
        fractions, ppn, cell,
    )


def lustre_contrast(
    nodes: int = 4,
    block_size="16m",
    ppn: int = 16,
    transfer_size="1m",
) -> Dict[str, float]:
    """The §IV/§V claim: DAOS shared ≈ DAOS fpp; Lustre shared << fpp.

    Returns write bandwidths (bytes/s) for the four cells. The Lustre
    shared-file run uses the io500-hard-style unaligned interleaved
    layout, where page-granular LDLM extent locks conflict on every
    operation; DAOS is byte-granular and lockless, so the same workload
    does not collapse.
    """
    daos = nextgenio(client_nodes=nodes)
    out: Dict[str, float] = {}
    params = IorParams(api="DFS", file_per_proc=True, oclass="SX",
                       block_size=block_size, transfer_size=transfer_size)
    out["daos_fpp_write"] = run_ior(daos, params, ppn=ppn).max_write_bw
    daos = nextgenio(client_nodes=nodes)
    params = IorParams(api="DFS", file_per_proc=False, oclass="SX",
                       interleaved=True, block_size=block_size,
                       transfer_size=transfer_size)
    out["daos_shared_write"] = run_ior(daos, params, ppn=ppn).max_write_bw

    lustre = build_lustre_cluster(server_nodes=8, client_nodes=nodes,
                                  stripe_count=8)
    params = IorParams(api="POSIX", file_per_proc=True,
                       block_size=block_size, transfer_size=transfer_size)
    out["lustre_fpp_write"] = run_ior(lustre, params, ppn=ppn).max_write_bw
    lustre = build_lustre_cluster(server_nodes=8, client_nodes=nodes,
                                  stripe_count=8)
    # unaligned interleaved transfers: the LDLM worst case. The block
    # must stay a multiple of the transfer, so derive it from the
    # requested block size.
    from repro.units import parse_size

    hard_xfer = 1000 * 1000  # 1 MB: page-sharing neighbours
    nblk = parse_size(block_size)
    nblk -= nblk % hard_xfer
    params = IorParams(api="POSIX", file_per_proc=False, interleaved=True,
                       block_size=nblk, transfer_size=hard_xfer)
    out["lustre_shared_write"] = run_ior(lustre, params, ppn=ppn).max_write_bw
    return out
