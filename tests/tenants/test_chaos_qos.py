"""Chaos serving: per-tenant QoS vs. a rebuild-induced noisy neighbour.

The acceptance scenario for the tenants subsystem: three hog tenants
stream large bulk jobs while one latency-sensitive tenant issues small
requests, and mid-run a permanent target exclusion kicks off a rebuild
that competes for the same weak engine. With QoS *off* the hogs (plus
rebuild traffic) saturate the target and push the light tenant's p99
through its SLO; with QoS *on* the same token-bucket family that paces
the rebuild caps each hog at 2 MiB/s and the light tenant's tail stays
bounded — same fleet, same seed, same fault schedule.

The cluster is deliberately tiny (one 200 MB/s target per engine) so
that contention is visible: on default hardware the fair-sharing flow
solver absorbs this fleet without measurable queueing.
"""

import json

import pytest

from repro.cluster import build_cluster
from repro.faults import ExcludeTarget, FaultSchedule
from repro.hardware.specs import EngineSpec
from repro.tenants import (
    BulkWork,
    Dispatcher,
    PoissonArrivals,
    ServingConfig,
    TenantSpec,
    build_report,
)
from repro.units import GiB, KiB, MiB

pytestmark = pytest.mark.chaos

#: SLO bound on the light tenant's windowed p99. Sits between the two
#: regimes: QoS-on keeps the exact p99 in the (16.8ms, 33.6ms] latency
#: bucket, QoS-off pushes it into (33.6ms, 67.1ms].
SLO_BOUND = 0.05
SLO_RULE = (
    f"tenant.request.latency{{tenant=light}} p99 < {SLO_BOUND} over 2 windows"
)


def _weak_cluster():
    cluster = build_cluster(
        server_nodes=2,
        client_nodes=2,
        engine_spec=EngineSpec(
            targets=1, target_write_bw=200e6, target_read_bw=400e6
        ),
        capacity_per_target=4 * GiB,
        seed=77,
    )
    cluster.fabric.rpc_timeout = 0.5  # read only by RPCs to a down engine
    return cluster


def _fleet():
    hogs = [
        TenantSpec(
            id=f"hog{i}",
            workload=BulkWork(nbytes=16 * MiB, xfer=1 * MiB),
            rate=16.0,
            qos_bw=2 * MiB,
            qos_burst=2 * MiB,
        )
        for i in range(3)
    ]
    light = TenantSpec(
        id="light",
        workload=BulkWork(nbytes=512 * KiB, xfer=512 * KiB),
        rate=5.0,
        qos_bw=1e12,  # effectively uncapped even when QoS is enabled
    )
    return hogs, light


def _run(qos_enabled):
    cluster = _weak_cluster()
    cluster.observe(
        tracing=False,
        timeline_interval=0.5,
        slo_rules=[SLO_RULE],
    )
    hogs, light = _fleet()
    config = ServingConfig(
        duration=6.0,
        qos_enabled=qos_enabled,
        max_inflight=32,
        max_inflight_per_tenant=4,
        aio_depth=16,
        n_containers=2,
        oclass="RP_2G1",  # replicated, so the exclusion triggers rebuild
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
    return report, rebuild_bytes


def test_qos_off_noisy_neighbours_breach_the_light_tenant_slo():
    report, rebuild_bytes = _run(qos_enabled=False)
    light = report["tenants"]["light"]
    assert light["completed"] > 20 and light["failed"] == 0
    # the exclusion really cost something: data moved during the run
    assert rebuild_bytes > 100 * MiB
    # unpaced hogs push the light tenant past its p99 bound...
    assert light["latency"]["p99"] > SLO_BOUND * 0.8
    # ...and the SLO engine flags exactly the violating tenant
    assert set(report["slo_breaches"]) == {"light"}
    assert report["tenants"]["light"]["slo_breaches"] >= 1
    for breach in report["slo_breaches"]["light"]:
        assert breach["metric"] == "tenant.request.latency{tenant=light}"


def test_qos_on_keeps_the_light_tenant_tail_bounded():
    report, rebuild_bytes = _run(qos_enabled=True)
    light = report["tenants"]["light"]
    assert light["completed"] > 20 and light["failed"] == 0
    assert rebuild_bytes > 0  # the fault still fired and rebuilt
    # token buckets paced the hogs: they spent real time waiting...
    for i in range(3):
        assert report["tenants"][f"hog{i}"]["qos_waited"] > 0.0
    # ...and the light tenant's exact p99 stays under the SLO bound
    assert light["latency"]["p99"] < SLO_BOUND
    assert report["slo_breaches"] == {}
    assert all(t["slo_breaches"] == 0 for t in report["tenants"].values())


def test_qos_flattens_the_hog_share_of_bytes():
    report_off, _ = _run(qos_enabled=False)
    report_on, _ = _run(qos_enabled=True)
    hog_off = sum(report_off["tenants"][f"hog{i}"]["bytes"] for i in range(3))
    hog_on = sum(report_on["tenants"][f"hog{i}"]["bytes"] for i in range(3))
    # open loop: the offered load is identical, the *served* load is not
    assert report_off["tenants"]["light"]["arrivals"] == \
        report_on["tenants"]["light"]["arrivals"]
    assert hog_on < hog_off / 2
    # capping the hogs improves byte-share fairness for the fleet
    assert report_on["fairness_bytes"] > report_off["fairness_bytes"] * 0.9


def test_chaos_run_is_deterministic():
    report1, rebuild1 = _run(qos_enabled=False)
    report2, rebuild2 = _run(qos_enabled=False)
    assert rebuild1 == rebuild2
    assert json.dumps(report1, sort_keys=True) == \
        json.dumps(report2, sort_keys=True)
