"""``repro-fdb``: field-database runs from the command line.

Boots a cluster, archives a deterministic field grid through the chosen
mapping/index pair, lands a flush landmark, retrieves the grid back by
parameter queries and prints the run report::

    python -m repro.fdb --backend kv --params 4 --steps 8
    python -m repro.fdb --backend dfs --field-size 16m --sync
    python -m repro.fdb --backend lustre --report-out report.json
    python -m repro.fdb --backend array --trace --timeline-out tl.json

Exit status is 1 when any SLO rule was breached, so scripted sweeps can
gate on it.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.errors import DerInval
from repro.fdb.report import build_report, render_report
from repro.fdb.run import BACKENDS, FdbParams, archive_and_retrieve, boot
from repro.obs.cli import (
    add_arguments,
    artifact_path,
    observe,
    positive_int,
    positive_size,
    settings,
    timeline_store,
    write_artifacts,
    write_json,
)
from repro.units import MiB, parse_size


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fdb",
        description="NWP field database on the simulated DAOS stack",
    )
    grid = parser.add_argument_group("field grid")
    grid.add_argument("--params", type=positive_int, default=4,
                      help="parameter count (default 4)")
    grid.add_argument("--levels", type=positive_int, default=1,
                      help="level count (default 1)")
    grid.add_argument("--steps", type=positive_int, default=4,
                      help="forecast-step count (default 4)")
    grid.add_argument("--members", type=positive_int, default=1,
                      help="ensemble-member count (default 1)")
    grid.add_argument("--dates", type=positive_int, default=1,
                      help="cycle-date count (default 1)")
    grid.add_argument("--field-size", type=parse_size, default=2 * MiB,
                      metavar="SIZE",
                      help="bytes per field, suffixes k/m/g ok "
                           "(default 2m)")
    store = parser.add_argument_group("storage")
    store.add_argument("--backend", choices=BACKENDS, default="kv",
                       help="field-object mapping (default kv)")
    store.add_argument("--index", choices=("kv", "tree"), default="",
                       help="index kind (default: kv for native-object "
                            "backends, tree for file-per-field)")
    store.add_argument("--oclass", default="SX",
                       help="object class for data objects (default SX)")
    store.add_argument("--chunk-size", type=positive_size, default=MiB,
                       metavar="SIZE",
                       help="array/file chunk size (default 1m)")
    pipe = parser.add_argument_group("pipeline")
    pipe.add_argument("--depth", type=positive_int, default=8, metavar="N",
                      help="event-queue depth (default 8)")
    pipe.add_argument("--sync", action="store_true",
                      help="blocking one-field-at-a-time I/O instead of "
                           "the async event-queue pipeline")
    pipe.add_argument("--no-verify", action="store_true",
                      help="skip content verification on retrieve")
    pipe.add_argument("--retrieve-param", action="append", default=[],
                      metavar="NAME",
                      help="retrieve only this parameter (repeatable; "
                           "default: all archived parameters)")
    geom = parser.add_argument_group("cluster geometry")
    geom.add_argument("--servers", type=positive_int, default=2)
    geom.add_argument("--clients", type=positive_int, default=1)
    geom.add_argument("--seed", type=int, default=0xDA05)
    obs = add_arguments(parser, default_interval=1.0)
    obs.add_argument("--trace", action="store_true",
                     help="record spans and report per-layer breakdowns")
    obs.add_argument("--report-out", metavar="PATH", type=artifact_path,
                     help="write the run report JSON")
    return parser


def params_from_args(args) -> FdbParams:
    wanted = settings(args, tracing=args.trace)  # echoed in the report
    return FdbParams(
        backend=args.backend,
        index=args.index,
        n_params=args.params,
        n_levels=args.levels,
        n_steps=args.steps,
        n_members=args.members,
        n_dates=args.dates,
        field_bytes=args.field_size,
        depth=args.depth,
        sync=args.sync,
        verify=not args.no_verify,
        server_nodes=args.servers,
        client_nodes=args.clients,
        oclass=args.oclass,
        chunk_bytes=args.chunk_size,
        seed=args.seed,
        retrieve_params=tuple(args.retrieve_param),
        tracing=wanted["tracing"],
        timeline_interval=wanted["timeline_interval"],
        slo_rules=tuple(args.slo),
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    params = params_from_args(args)
    try:
        cluster = boot(params)
    except DerInval as exc:
        parser.error(str(exc))
    observe(cluster, args, tracing=args.trace)
    result = archive_and_retrieve(cluster, params)
    report = build_report(result, store=timeline_store(cluster))
    print(render_report(report))
    write_json(report, args.report_out, "report")
    write_artifacts(cluster, args)
    return 1 if report["slo_breaches"] else 0
