#!/usr/bin/env python
"""Regenerate the paper's figures as ASCII tables.

Usage::

    python benchmarks/run_figures.py                    # quick scale
    python benchmarks/run_figures.py --full --contrast  # figures_full.txt

``--full`` is the paper-scale sweep (1..16 client nodes x 16 ppn,
64 MiB blocks); ``--contrast`` appends the §IV DAOS-vs-Lustre cell.
``make experiments`` redirects the second form into ``figures_full.txt``
and fails if the tracked file changes, and
``tests/test_experiments_doc.py`` holds every table of EXPERIMENTS.md to
that file. One instrumented point is ``repro-ior -a DFS -F ...
--trace-out`` (README "Observing a run").
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
from repro.units import fmt_bw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--full", action="store_true",
                        help="paper-scale sweep (~2 min)")
    parser.add_argument("--contrast", action="store_true",
                        help="also run the DAOS-vs-Lustre contrast")
    args = parser.parse_args(argv)

    node_counts = FULL_NODE_COUNTS if args.full else QUICK_NODE_COUNTS
    block = "64m" if args.full else "16m"

    t0 = time.time()
    for sweep in (fig1_fpp, fig2_shared):
        for figure in sweep(node_counts, block):
            print(render_figure(figure), end="\n\n")
    if args.contrast:
        cells = lustre_contrast(nodes=min(4, max(node_counts)),
                                block_size=block)
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
