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


def _run_point(
    nodes: int,
    api: str,
    oclass: Optional[str],
    file_per_proc: bool,
    block_size,
    ppn: int,
    repetitions: int,
) -> Tuple[float, float]:
    cluster = nextgenio(client_nodes=nodes)
    params = IorParams(
        api=api,
        file_per_proc=file_per_proc,
        oclass=oclass,
        block_size=block_size,
        transfer_size="1m",
        repetitions=repetitions,
    )
    result = run_ior(cluster, params, ppn=ppn)
    return result.max_write_bw, result.max_read_bw


def fig1_fpp(
    node_counts: Iterable[int] = QUICK_NODE_COUNTS,
    block_size="16m",
    ppn: int = 16,
    repetitions: int = 1,
    interfaces: Iterable[str] = FIG1_INTERFACES,
    oclasses: Iterable[str] = FIG1_OCLASSES,
) -> Tuple[FigureData, FigureData]:
    """Returns (fig1a_read, fig1b_write)."""
    read_fig = FigureData("Fig 1a", "IOR file-per-process: read",
                          "client nodes", "bandwidth")
    write_fig = FigureData("Fig 1b", "IOR file-per-process: write",
                           "client nodes", "bandwidth")
    for api in interfaces:
        for oclass in oclasses:
            label = _series_label(api, oclass)
            read_series = Series(label)
            write_series = Series(label)
            for nodes in node_counts:
                write_bw, read_bw = _run_point(
                    nodes, api, oclass, True, block_size, ppn, repetitions,
                )
                read_series.add(nodes, read_bw)
                write_series.add(nodes, write_bw)
            read_fig.series.append(read_series)
            write_fig.series.append(write_series)
    return read_fig, write_fig


def fig2_shared(
    node_counts: Iterable[int] = QUICK_NODE_COUNTS,
    block_size="16m",
    ppn: int = 16,
    repetitions: int = 1,
    interfaces: Iterable[str] = FIG2_INTERFACES,
    oclass: str = "SX",
) -> Tuple[FigureData, FigureData]:
    """Returns (fig2a_read, fig2b_write)."""
    read_fig = FigureData("Fig 2a", "IOR shared-file: read",
                          "client nodes", "bandwidth")
    write_fig = FigureData("Fig 2b", "IOR shared-file: write",
                           "client nodes", "bandwidth")
    for api in interfaces:
        label = _series_label(api)
        read_series = Series(label)
        write_series = Series(label)
        for nodes in node_counts:
            write_bw, read_bw = _run_point(
                nodes, api, oclass, False, block_size, ppn, repetitions,
            )
            read_series.add(nodes, read_bw)
            write_series.add(nodes, write_bw)
        read_fig.series.append(read_series)
        write_fig.series.append(write_series)
    return read_fig, write_fig


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
    read_fig = FigureData("Cache 1a", f"IOR fpp over {api}: read by cache mode",
                          "client nodes", "bandwidth")
    write_fig = FigureData("Cache 1b", f"IOR fpp over {api}: write by cache mode",
                           "client nodes", "bandwidth")
    for mode in modes:
        read_series = Series(mode)
        write_series = Series(mode)
        for nodes in node_counts:
            cluster = nextgenio(client_nodes=nodes)
            params = IorParams(
                api=api,
                file_per_proc=True,
                oclass="SX",
                block_size=block_size,
                transfer_size="1m",
                cache_mode=mode,
            )
            result = run_ior(cluster, params, ppn=ppn)
            read_series.add(nodes, result.max_read_bw)
            write_series.add(nodes, result.max_write_bw)
        read_fig.series.append(read_series)
        write_fig.series.append(write_series)
    return read_fig, write_fig


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
    read_fig = FigureData("Async 1a", "IOR fpp: read by queue depth",
                          "aio queue depth", "bandwidth")
    write_fig = FigureData("Async 1b", "IOR fpp: write by queue depth",
                           "aio queue depth", "bandwidth")
    for api in apis:
        label = _series_label(api)
        read_series = Series(label)
        write_series = Series(label)
        for depth in depths:
            cluster = nextgenio(client_nodes=nodes)
            params = IorParams(
                api=api,
                file_per_proc=True,
                oclass=oclass,
                block_size=block_size,
                transfer_size="1m",
                aio_queue_depth=depth,
            )
            result = run_ior(cluster, params, ppn=ppn)
            read_series.add(depth, result.max_read_bw)
            write_series.add(depth, result.max_write_bw)
        read_fig.series.append(read_series)
        write_fig.series.append(write_series)
    return read_fig, write_fig


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

    read_fig = FigureData(
        "Rebuild 1a", f"IOR fpp over {api}: read during rebuild",
        "rebuild throttle fraction", "bandwidth",
    )
    write_fig = FigureData(
        "Rebuild 1b", f"IOR fpp over {api}: write during rebuild",
        "rebuild throttle fraction", "bandwidth",
    )
    params = IorParams(
        api=api,
        file_per_proc=True,
        oclass=oclass,
        block_size=block_size,
        transfer_size="1m",
    )
    healthy = run_ior(nextgenio(client_nodes=nodes), params, ppn=ppn)
    window_bytes = parse_size(window)
    healthy_read, healthy_write = Series("healthy"), Series("healthy")
    rebuild_read = Series("during rebuild")
    rebuild_write = Series("during rebuild")
    for fraction in fractions:
        cluster = nextgenio(client_nodes=nodes)
        cluster.daos.rebuild.throttle.fraction = fraction
        _open_rebuild_window(cluster, window_bytes)
        result = run_ior(cluster, params, ppn=ppn)
        healthy_read.add(fraction, healthy.max_read_bw)
        healthy_write.add(fraction, healthy.max_write_bw)
        rebuild_read.add(fraction, result.max_read_bw)
        rebuild_write.add(fraction, result.max_write_bw)
    read_fig.series.extend([healthy_read, rebuild_read])
    write_fig.series.extend([healthy_write, rebuild_write])
    return read_fig, write_fig


def fig1_traced_point(
    block_size="16m",
    ppn: int = 16,
    oclass: str = "SX",
    trace_out: Optional[str] = None,
    metrics_out: Optional[str] = None,
    cache_mode: str = "none",
    timeline_out: Optional[str] = None,
    timeline_interval: float = 0.01,
    slo=None,
):
    """One instrumented fig-1 point: single client node, DFS
    file-per-process, with tracing + metrics enabled. Writes the Chrome
    trace / metrics dump / timeline JSON when paths are given and
    returns the IorResult (whose summary carries the per-layer
    breakdown and, with a timeline, the sparkline block).
    """
    from repro.obs import write_chrome_trace, write_metrics, write_timeline

    cluster = nextgenio(client_nodes=1)
    cluster.observe(
        timeline_interval=timeline_interval if timeline_out else None,
        slo_rules=slo,
    )
    params = IorParams(
        api="DFS",
        file_per_proc=True,
        oclass=oclass,
        block_size=block_size,
        transfer_size="1m",
        cache_mode=cache_mode,
    )
    result = run_ior(cluster, params, ppn=ppn)
    if trace_out:
        write_chrome_trace(cluster.sim.tracer, trace_out,
                           timeline=result.timeline)
    if metrics_out:
        write_metrics(cluster.sim.metrics, metrics_out)
    if timeline_out:
        write_timeline(cluster.sim.timeline.store, timeline_out)
    return result


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
