"""Multi-tenant serving: open-loop traffic, admission control, QoS.

Facade for the serving subsystem (DESIGN.md §9)::

    from repro import tenants

    cluster = small_cluster()
    cluster.observe(timeline_interval=1.0,
                    slo_rules=["tenant.request.latency p99 < 0.5 over 3 windows"])
    fleet = tenants.make_tenants(100, rate=2.0)
    d = tenants.Dispatcher(
        cluster, fleet, tenants.PoissonArrivals(cluster.rng),
        tenants.ServingConfig(duration=30.0, qos_enabled=True),
    )
    result = cluster.run(d.serve())
    report = tenants.build_report(result, store=cluster.sim.timeline.store)
"""

from repro.tenants.admission import (
    REASON_GLOBAL,
    REASON_TENANT,
    AdmissionController,
    TenantRejected,
)
from repro.tenants.arrivals import PoissonArrivals, TraceArrivals
from repro.tenants.dispatcher import Dispatcher, ServingConfig
from repro.tenants.report import (
    breaches_by_tenant,
    build_report,
    jain_fairness,
    render_report,
)
from repro.tenants.spec import (
    DEFAULT_MIX,
    BulkWork,
    KvBurstWork,
    MetaStormWork,
    TenantSpec,
    make_tenants,
)

__all__ = [
    "AdmissionController",
    "BulkWork",
    "DEFAULT_MIX",
    "Dispatcher",
    "KvBurstWork",
    "MetaStormWork",
    "PoissonArrivals",
    "REASON_GLOBAL",
    "REASON_TENANT",
    "ServingConfig",
    "TenantRejected",
    "TenantSpec",
    "TraceArrivals",
    "breaches_by_tenant",
    "build_report",
    "jain_fairness",
    "make_tenants",
    "render_report",
]
