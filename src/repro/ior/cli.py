"""An IOR-compatible command line for the simulated stack.

Accepts the subset of real-IOR flags this port implements, boots a
cluster, runs the workload and prints the familiar result block::

    python -m repro.ior -a DFS -F -b 64m -t 1m -N 4 --ppn 16 -O oclass=S2
    python -m repro.ior -a MPIIO -b 16m -t 1m -c --lustre

Cluster geometry flags (``-N/--nodes``, ``--ppn``, ``--servers``,
``--lustre``) replace the job launcher a real IOR run would use.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.cluster import build_system
from repro.errors import DerInval
from repro.ior.backends import available_apis, backend_class
from repro.ior.config import OPTIONS, IorParams
from repro.ior.runner import run_ior
from repro.obs.cli import (add_arguments, integer, observe, positive_int,
                           write_artifacts)


def _key_value(text: str) -> tuple:
    key, sep, value = text.partition("=")
    if not sep or key not in OPTIONS:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not KEY=VALUE with KEY one of {', '.join(OPTIONS)}"
        )
    return key, value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ior(sim)",
        description="IOR on the simulated DAOS / Lustre stack",
    )
    parser.add_argument("-a", "--api", choices=available_apis(),
                        default="DFS")
    parser.add_argument("-b", "--block-size", default="16m")
    parser.add_argument("-t", "--transfer-size", default="1m")
    parser.add_argument("-s", "--segments", type=positive_int, default=1)
    parser.add_argument("-F", "--file-per-proc", action="store_true")
    parser.add_argument("-c", "--collective", action="store_true")
    parser.add_argument("-e", "--fsync", action="store_true")
    parser.add_argument("-C", "--reorder", action="store_true", default=True)
    parser.add_argument("--no-reorder", dest="reorder", action="store_false")
    phase = parser.add_mutually_exclusive_group()
    phase.add_argument("-w", "--write-only", action="store_true")
    phase.add_argument("-r", "--read-only", action="store_true")
    parser.add_argument("-R", "--verify", action="store_true")
    parser.add_argument("-i", "--repetitions", type=positive_int, default=1)
    parser.add_argument("--interleaved", action="store_true",
                        help="io500-hard style transfer interleave")
    parser.add_argument("-O", "--option", action="append", default=[],
                        type=_key_value, metavar="KEY=VALUE",
                        help="backend options: oclass=S2, chunk_size=1m, "
                             "cb_buffer=16m")
    # cluster geometry
    parser.add_argument("-N", "--nodes", type=positive_int, default=2,
                        help="client nodes")
    parser.add_argument("--ppn", type=positive_int, default=16)
    parser.add_argument("--servers", type=positive_int, default=8)
    parser.add_argument("--lustre", action="store_true",
                        help="run against the Lustre baseline instead")
    parser.add_argument("--cache-mode", choices=("none", "readonly",
                                                 "writeback"),
                        default="none",
                        help="client-side caching tier (DAOS only): data "
                             "page cache + attr/dentry TTLs (readonly), "
                             "plus write-behind aggregation (writeback)")
    parser.add_argument("--aio-depth", type=int, default=0, metavar="N",
                        help="async event-queue depth: keep up to N "
                             "transfers in flight per rank (0 = blocking "
                             "loop; >1 needs an async-capable api)")
    parser.add_argument("--seed", type=integer, default=0xDA05)
    add_arguments(parser, default_interval=0.01)
    return parser


def params_from_args(args) -> IorParams:
    """The workload the flags describe; ``ValueError`` / ``DerInval`` for
    sizes, classes or combinations :class:`IorParams` rejects."""
    return IorParams(
        api=args.api,
        block_size=args.block_size,
        transfer_size=args.transfer_size,
        segments=args.segments,
        file_per_proc=args.file_per_proc,
        interleaved=args.interleaved,
        collective=args.collective,
        fsync=args.fsync,
        reorder_tasks=args.reorder,
        write=not args.read_only,
        read=not args.write_only,
        verify=args.verify,
        repetitions=args.repetitions,
        cache_mode=args.cache_mode,
        aio_queue_depth=args.aio_depth,
        **dict(args.option),
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        params = params_from_args(args)
    except (ValueError, DerInval) as exc:
        parser.error(str(exc))
    if args.read_only:
        # a read-only run needs pre-existing data: a write pass makes it
        # and is not reported
        params.write = True
    if args.lustre and backend_class(params.api).needs_daos:
        parser.error(f"api {params.api} requires DAOS (drop --lustre)")
    if args.lustre and params.cache_mode != "none":
        parser.error("--cache-mode applies to the DAOS stack only")
    cluster = build_system(args.lustre, args.servers, args.nodes, args.seed)
    observe(cluster, args)
    result = run_ior(cluster, params, ppn=args.ppn)
    if args.read_only:
        params.write = False  # so the summary reports only the reads
    print(result.summary())
    write_artifacts(cluster, args)
    return 1 if result.verify_errors else 0
