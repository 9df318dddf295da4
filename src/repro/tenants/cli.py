"""``repro-tenants``: multi-tenant serving runs from the command line.

Boots a cluster, builds a tenant fleet, replays an open-loop horizon
and prints the serving report::

    python -m repro.tenants --tenants 50 --rate 2 --duration 20 --qos
    python -m repro.tenants --tenants 8 --chaos --slo \\
        'tenant.request.latency p99 < 0.5 over 3 windows'
    python -m repro.tenants --trace arrivals.json --report-out report.json

``--chaos`` excludes one storage target mid-run and reintegrates it
later, so rebuild/resync traffic competes with tenant traffic.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.cluster import build_cluster
from repro.errors import DerInval
from repro.obs.cli import (
    add_arguments,
    artifact_path,
    integer,
    observe,
    positive_float,
    positive_int,
    timeline_store,
    write_artifacts,
    write_json,
)
from repro.tenants.arrivals import PoissonArrivals, TraceArrivals
from repro.tenants.dispatcher import Dispatcher, ServingConfig
from repro.tenants.report import build_report, render_report
from repro.tenants.spec import (
    DEFAULT_MIX,
    BulkWork,
    KvBurstWork,
    MetaStormWork,
    make_tenants,
)

#: --mix choices
MIXES = {
    "default": DEFAULT_MIX,
    "bulk": ((BulkWork(), 1),),
    "kv": ((KvBurstWork(), 1),),
    "meta": ((MetaStormWork(), 1),),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tenants",
        description="multi-tenant serving on the simulated DAOS stack",
    )
    fleet = parser.add_argument_group("fleet")
    fleet.add_argument("--tenants", type=positive_int, default=16,
                       help="tenant count (default 16)")
    fleet.add_argument("--rate", type=positive_float,
                       help="per-tenant arrival rate, jobs/s (default 2; "
                            "not with --trace)")
    fleet.add_argument("--mix", choices=sorted(MIXES), default="default",
                       help="workload mix (default: bulk/kv/meta blend)")
    fleet.add_argument("--duration", type=positive_float, default=20.0,
                       help="serving horizon in simulated seconds")
    fleet.add_argument("--trace", metavar="PATH",
                       help="replay arrivals from a JSON trace instead of "
                            "the seeded Poisson process")
    qos = parser.add_argument_group("admission and QoS")
    qos.add_argument("--qos", action="store_true",
                     help="enable per-tenant byte-rate budgets")
    qos.add_argument("--qos-bw", type=positive_float, metavar="BYTES_PER_S",
                     help="default per-tenant budget with --qos "
                          "(default 8 MiB/s)")
    qos.add_argument("--admit", type=positive_int, default=64, metavar="N",
                     help="global in-flight job bound (default 64)")
    qos.add_argument("--admit-per-tenant", type=positive_int, default=4,
                     metavar="N",
                     help="per-tenant in-flight bound (default 4)")
    qos.add_argument("--aio-depth", type=positive_int, default=4, metavar="N",
                     help="per-job event-queue depth (default 4)")
    geom = parser.add_argument_group("cluster geometry")
    geom.add_argument("--servers", type=positive_int, default=2)
    geom.add_argument("--clients", type=positive_int, default=2)
    geom.add_argument("--pools", type=positive_int, default=1)
    geom.add_argument("--containers", type=positive_int, default=4)
    geom.add_argument("--oclass", default="S1")
    geom.add_argument("--seed", type=integer, default=0xDA05)
    geom.add_argument("--chaos", action="store_true",
                      help="exclude a target mid-run and reintegrate it, "
                           "racing rebuild traffic against tenants")
    obs = add_arguments(parser, default_interval=1.0)
    obs.add_argument("--report-out", metavar="PATH", type=artifact_path,
                     help="write the serving report JSON")
    return parser


def build_dispatcher(args) -> Dispatcher:
    """Boot an observed cluster and lay the fleet the flags describe over
    it. ``DerInval`` / ``ValueError`` / ``OSError`` for a fleet, config or
    arrival trace that cannot be built — raised before anything is served.
    """
    # a flag left out keeps the library's default
    rate = {} if args.rate is None else {"rate": args.rate}
    budget = {} if args.qos_bw is None else {"default_qos_bw": args.qos_bw}
    fleet = make_tenants(args.tenants, mix=MIXES[args.mix], **rate)
    replay = TraceArrivals.from_file(args.trace) if args.trace else None
    config = ServingConfig(
        duration=args.duration,
        qos_enabled=args.qos,
        **budget,
        aio_depth=args.aio_depth,
        max_inflight=args.admit,
        max_inflight_per_tenant=args.admit_per_tenant,
        n_pools=args.pools,
        n_containers=args.containers,
        oclass=args.oclass,
    )
    cluster = build_cluster(
        server_nodes=args.servers, client_nodes=args.clients,
        seed=args.seed,
    )
    # the serving report groups breaches per tenant, so the scraper (and
    # with it the stall watchdog) always runs
    observe(cluster, args, timeline=True)
    arrivals = PoissonArrivals(cluster.rng) if replay is None else replay
    return Dispatcher(cluster, fleet, arrivals, config)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.qos_bw is not None and not args.qos:
        parser.error("--qos-bw: a budget applies only with --qos")
    if args.rate is not None and args.trace:
        parser.error("--rate: a replayed --trace sets the arrivals")
    try:
        dispatcher = build_dispatcher(args)
    except (DerInval, ValueError, OSError) as exc:
        parser.error(str(exc))
    cluster = dispatcher.cluster
    if args.chaos:
        from repro.faults import ExcludeTarget, FaultSchedule, ReintegrateTarget

        cluster.inject(
            FaultSchedule()
            .at(args.duration * 0.25, ExcludeTarget(tid=0))
            .at(args.duration * 0.50, ReintegrateTarget(tid=0))
        )
    result = cluster.run(dispatcher.serve())
    report = build_report(result, store=timeline_store(cluster))
    print(render_report(report))
    write_json(report, args.report_out, "report")
    write_artifacts(cluster, args)
    return 1 if any(report["slo_breaches"].values()) else 0
