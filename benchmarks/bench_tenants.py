"""Multi-tenant serving sweep — tenant count x arrival rate x QoS.

Each cell runs an open-loop fleet (the default bulk/kv/meta mix) against
a small cluster and records the numbers the subsystem exists to report:
per-fleet tail latency (exact p50/p99/p999 over every request), Jain
byte-share fairness, rejection rate, and QoS wait time.  A final *chaos*
cell re-runs the noisy-neighbour scenario from
``tests/tenants/test_chaos_qos.py`` — three throttled hogs plus one
latency-sensitive tenant racing a rebuild — and records the light
tenant's tail with QoS off vs on.

``python benchmarks/bench_tenants.py --out artifacts/BENCH_tenants.json``
writes the artifact; every run is seeded end to end, so ``make
bench-tenants`` runs it twice and ``cmp``s the outputs — the artifact is
a determinism gate as well as a perf record.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

from repro.cluster import build_cluster, small_cluster
from repro.faults import ExcludeTarget, FaultSchedule
from repro.hardware.specs import EngineSpec, FabricSpec
from repro.tenants import (
    BulkWork,
    Dispatcher,
    KvBurstWork,
    MetaStormWork,
    PoissonArrivals,
    ServingConfig,
    TenantSpec,
    build_report,
    make_tenants,
)
from repro.units import GiB, KiB, MiB

#: quick sweep grid; REPRO_BENCH_FULL=1 widens it to the 1000-tenant point
TENANT_COUNTS = (8, 32)
RATES = (1.0, 4.0)
DURATION = 4.0

#: small jobs keep every cell sub-second of wall time
MIX = (
    (BulkWork(nbytes=64 * KiB, xfer=32 * KiB), 2),
    (KvBurstWork(n_ops=4), 1),
    (MetaStormWork(n_ops=2), 1),
)

FULL = os.environ.get("REPRO_BENCH_FULL", "") == "1"
if FULL:
    TENANT_COUNTS = (8, 32, 128, 1000)


def _cell(n_tenants, rate, qos_enabled):
    fleet = make_tenants(n_tenants, rate=rate, mix=MIX)
    cluster = small_cluster()
    config = ServingConfig(
        duration=DURATION,
        qos_enabled=qos_enabled,
        default_qos_bw=8 * MiB,
        max_inflight=128,
        max_inflight_per_tenant=2,
    )
    dispatcher = Dispatcher(
        cluster, fleet, PoissonArrivals(cluster.rng), config
    )
    t0 = time.perf_counter()
    result = cluster.run(dispatcher.serve())
    wall = time.perf_counter() - t0
    report = build_report(result)
    return {
        "tenants": n_tenants,
        "rate": rate,
        "qos": qos_enabled,
        "arrivals": report["totals"]["arrivals"],
        "completed": report["totals"]["completed"],
        "failed": report["totals"]["failed"],
        "rejection_rate": report["rejection_rate"],
        "latency": report["latency"],
        "fairness_bytes": report["fairness_bytes"],
        "throughput_bytes_per_s": report["throughput"],
        "qos_waited": sum(
            t["qos_waited"] for t in report["tenants"].values()
        ),
        "sim_end": report["end_time"],
        "wall_seconds": round(wall, 3),  # informational; machine-dependent
    }


def _chaos_cell(qos_enabled):
    """The test_chaos_qos scenario: hogs + rebuild vs one light tenant."""
    cluster = build_cluster(
        server_nodes=2,
        client_nodes=2,
        engine_spec=EngineSpec(
            targets=1, target_write_bw=200e6, target_read_bw=400e6
        ),
        fabric_spec=FabricSpec(rpc_timeout=0.5),
        capacity_per_target=4 * GiB,
        seed=77,
    )
    cluster.observe(tracing=False, metrics=True, timeline_interval=0.5,
                    slo_rules=["tenant.request.latency{tenant=light} "
                               "p99 < 0.05 over 2 windows"])
    hogs = [
        TenantSpec(id=f"hog{i}",
                   workload=BulkWork(nbytes=16 * MiB, xfer=1 * MiB),
                   rate=16.0, qos_bw=2 * MiB, qos_burst=2 * MiB)
        for i in range(3)
    ]
    light = TenantSpec(id="light",
                       workload=BulkWork(nbytes=512 * KiB, xfer=512 * KiB),
                       rate=5.0, qos_bw=1e12)
    config = ServingConfig(
        duration=6.0, qos_enabled=qos_enabled, max_inflight=32,
        max_inflight_per_tenant=4, aio_depth=16, n_containers=2,
        oclass="RP_2G1",
    )
    dispatcher = Dispatcher(
        cluster, hogs + [light], PoissonArrivals(cluster.rng), config
    )
    cluster.inject(
        FaultSchedule().at(2.0, ExcludeTarget(tid=0, permanent=True))
    )
    result = cluster.run(dispatcher.serve())
    report = build_report(result, store=cluster.sim.timeline.store)
    rebuild_bytes = sum(
        counter.value
        for name, counter in cluster.sim.metrics.counters.items()
        if name.startswith("rebuild.bytes_moved")
    )
    return {
        "qos": qos_enabled,
        "light_latency": report["tenants"]["light"]["latency"],
        "hog_bytes": sum(
            report["tenants"][f"hog{i}"]["bytes"] for i in range(3)
        ),
        "rebuild_bytes": rebuild_bytes,
        "slo_breaches": {
            tid: len(events)
            for tid, events in report["slo_breaches"].items()
        },
        "fairness_bytes": report["fairness_bytes"],
    }


def run_sweep():
    cells = [
        _cell(n, rate, qos)
        for n in TENANT_COUNTS
        for rate in RATES
        for qos in (False, True)
    ]
    chaos = [_chaos_cell(False), _chaos_cell(True)]
    return {"sweep": cells, "chaos": chaos}


def main(argv=None) -> int:
    from conftest import write_artifact

    doc, out = write_artifact(run_sweep, __doc__.splitlines()[0],
                              "artifacts/BENCH_tenants.json", argv)
    chaos_off, chaos_on = doc["chaos"]
    print(f"wrote {out}: {len(doc['sweep'])} sweep cells + chaos pair")
    print(f"  chaos light p99: qos-off {chaos_off['light_latency']['p99']*1e3:.1f} ms "
          f"(breaches {chaos_off['slo_breaches']}), "
          f"qos-on {chaos_on['light_latency']['p99']*1e3:.1f} ms "
          f"(breaches {chaos_on['slo_breaches']})")
    return 0


# -- pytest-benchmark entry points (make bench) ------------------------------


def test_tenant_sweep(benchmark):
    from conftest import run_once

    doc = run_once(benchmark, run_sweep)
    for cell in doc["sweep"]:
        assert cell["failed"] == 0
        assert cell["latency"]["p999"] >= cell["latency"]["p99"] > 0
        assert 0.0 < cell["fairness_bytes"] <= 1.0
    chaos_off, chaos_on = doc["chaos"]
    # the headline claim: QoS keeps the light tenant inside its SLO
    assert chaos_off["slo_breaches"] == {"light": 1}
    assert chaos_on["slo_breaches"] == {}
    assert chaos_on["light_latency"]["p99"] < \
        chaos_off["light_latency"]["p99"]


if __name__ == "__main__":
    sys.exit(main())
