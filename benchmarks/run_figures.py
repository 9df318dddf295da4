#!/usr/bin/env python
"""Regenerate the paper's figures as ASCII tables.

Usage::

    python benchmarks/run_figures.py                 # quick scale
    python benchmarks/run_figures.py --full          # paper scale
    python benchmarks/run_figures.py --figure 1a     # one panel
    python benchmarks/run_figures.py --contrast      # the §IV claim
    python benchmarks/run_figures.py --nodes 16,32,64 --figure 1b
    python benchmarks/run_figures.py --ppn 4 --trace-out trace.json

The full sweep (1..16 client nodes x 16 ppn, 64 MiB blocks) regenerates
the exact series reported in EXPERIMENTS.md.  ``--nodes`` overrides the
node-count axis with an explicit comma-separated list; sweeps up to
64-128 client nodes finish in minutes.  Any observability flag (the
group shared with the ``repro-*`` command lines, README "Observing a
run") runs ONE instrumented fig-1 point instead of the sweep — single
client node, DFS file-per-process, spans always on: a full sweep's span
list would dwarf the figures it produces.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench import (
    FULL_NODE_COUNTS,
    QUICK_NODE_COUNTS,
    fig1_fpp,
    fig2_shared,
    lustre_contrast,
    render_figure,
)
from repro.cluster import nextgenio
from repro.ior import IorParams, run_ior
from repro.obs.cli import (
    add_arguments,
    observe,
    positive_int,
    settings,
    write_artifacts,
)
from repro.units import fmt_bw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="paper-scale sweep (slow: ~15-30 min)")
    parser.add_argument("--figure", choices=["1a", "1b", "2a", "2b", "all"],
                        default="all")
    parser.add_argument("--contrast", action="store_true",
                        help="also run the DAOS-vs-Lustre contrast")
    parser.add_argument("--ppn", type=positive_int, default=16)
    parser.add_argument("--nodes", metavar="N,N,...",
                        help="explicit client-node counts for the sweep "
                             "axis, e.g. 8,16,32,64 (overrides --full)")
    parser.add_argument("--cache-mode",
                        choices=["none", "readonly", "writeback"],
                        default="none",
                        help="client cache mode for the instrumented point")
    add_arguments(parser, default_interval=0.01)
    args = parser.parse_args(argv)

    node_counts = FULL_NODE_COUNTS if args.full else QUICK_NODE_COUNTS
    if args.nodes:
        try:
            node_counts = tuple(
                int(n) for n in args.nodes.split(",") if n.strip()
            )
        except ValueError:
            parser.error(f"--nodes expects a comma-separated list of "
                         f"integers, got {args.nodes!r}")
        if not node_counts or any(n < 1 for n in node_counts):
            parser.error("--nodes counts must be positive integers")
    block = "64m" if args.full else "16m"

    t0 = time.time()
    if settings(args)["metrics"]:
        cluster = nextgenio(client_nodes=1)
        observe(cluster, args, tracing=True)
        params = IorParams(api="DFS", file_per_proc=True, oclass="SX",
                           block_size=block, transfer_size="1m",
                           cache_mode=args.cache_mode)
        result = run_ior(cluster, params, ppn=args.ppn)
        print(result.summary())
        write_artifacts(cluster, args)
        print(f"(generated in {time.time() - t0:.1f}s wall time)",
              file=sys.stderr)
        return 0
    if args.figure in ("1a", "1b", "all"):
        fig1a, fig1b = fig1_fpp(node_counts, block, args.ppn)
        if args.figure in ("1a", "all"):
            print(render_figure(fig1a), end="\n\n")
        if args.figure in ("1b", "all"):
            print(render_figure(fig1b), end="\n\n")
    if args.figure in ("2a", "2b", "all"):
        fig2a, fig2b = fig2_shared(node_counts, block, args.ppn)
        if args.figure in ("2a", "all"):
            print(render_figure(fig2a), end="\n\n")
        if args.figure in ("2b", "all"):
            print(render_figure(fig2b), end="\n\n")
    if args.contrast:
        cells = lustre_contrast(nodes=min(4, max(node_counts)),
                                block_size=block, ppn=args.ppn)
        print("Write bandwidth, easy vs hard:")
        print(f"  DAOS   fpp {fmt_bw(cells['daos_fpp_write'])}, "
              f"shared {fmt_bw(cells['daos_shared_write'])}")
        print(f"  Lustre fpp {fmt_bw(cells['lustre_fpp_write'])}, "
              f"shared {fmt_bw(cells['lustre_shared_write'])}")
    print(f"(generated in {time.time() - t0:.1f}s wall time)",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
