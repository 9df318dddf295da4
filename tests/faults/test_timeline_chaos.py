"""Acceptance: the SLO/stall watchdog catches an engine crash mid-write.

A paced DFS write workload runs while every engine crashes and later
restarts. The timeline must show the per-window wire throughput dropping
to zero across the outage while ``client.io.inflight`` stays positive
(ops burning RPC timeouts), and the default stall rule must emit a
breach inside the outage — the silent-hang signature, caught live
instead of by iteration-limit timeout.

All times below are relative to the scraper's origin (cluster bootstrap
has already advanced the simulated clock when the workload starts; the
fault schedule arms at that same instant).
"""

import pytest

from repro.cluster import small_cluster
from repro.daos.vos.payload import PatternPayload
from repro.dfs import Dfs
from repro.errors import DerTimedOut
from repro.faults import CrashEngine, FaultSchedule, RestartEngine
from repro.units import MiB
from tests.obs.test_timeline import value_at

pytestmark = pytest.mark.chaos

_SEED = 0xDA05
_INTERVAL = 0.01
_CRASH_AT = 0.1
_RESTART_AT = 0.4
_RUN_FOR = 0.6
_CHUNK = MiB


def _crash_all_schedule(cluster) -> FaultSchedule:
    schedule = FaultSchedule()
    for rank in range(len(cluster.daos.engines)):
        schedule.at(_CRASH_AT, CrashEngine(rank))
        schedule.at(_RESTART_AT, RestartEngine(rank))
    return schedule


def _paced_writer(cluster):
    """Write 1 MiB chunks on a steady cadence, retrying through the
    outage — exactly the client behaviour a stall watchdog must flag."""
    client = cluster.new_client(0)

    def go():
        t_end = cluster.sim.now + _RUN_FOR
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("tl-chaos", oclass="S1")
        dfs = yield from Dfs.mount(cont)
        handle = yield from dfs.open_file("/f", create=True)
        offset = 0
        retries = 0
        while cluster.sim.now < t_end:
            payload = PatternPayload(7, offset, _CHUNK)
            while True:
                try:
                    yield from handle.write(offset, payload)
                    break
                except DerTimedOut:
                    retries += 1
                    yield 0.002  # back off briefly, keep ops in flight
            offset += _CHUNK
            yield _INTERVAL
        handle.close()
        return offset, retries

    return go()


def _run_timeline_chaos():
    cluster = small_cluster(server_nodes=3, client_nodes=1,
                            targets_per_engine=2, seed=_SEED)
    cluster.observe(tracing=True, timeline_interval=_INTERVAL)
    cluster.inject(_crash_all_schedule(cluster))
    task = cluster.sim.spawn(_paced_writer(cluster), "chaos:paced-writer")
    result = cluster.sim.run_until_complete(task, limit=1e6)
    return cluster, result


def test_engine_crash_shows_in_timeline_and_breaches_stall_rule():
    cluster, (written, retries) = _run_timeline_chaos()
    store = cluster.sim.timeline.store
    t0 = store.origin
    assert written >= 8 * _CHUNK  # made real progress around the outage
    assert retries > 0  # the outage was actually felt

    rate = store.series["fabric.xfer.bytes:rate"]
    rate.finalize()

    # before the crash: bytes were moving
    pre = [v for t, v in rate.points if t <= t0 + _CRASH_AT]
    assert pre and max(pre) > 0.0

    # mid-outage: wire throughput visibly drops to zero...
    for dt in (0.2, 0.25, 0.3, 0.35):
        assert value_at(rate, t0 + dt) == 0.0, dt
    # ...while ops stay in flight, burning RPC timeouts
    guard = store.series["client.io.inflight:mean"]
    guard.finalize()
    inflight = [value_at(guard, t0 + dt) for dt in (0.2, 0.25, 0.3, 0.35)]
    assert any(v and v > 0.0 for v in inflight)

    # after the restart: throughput recovers
    post = [v for t, v in rate.points if t > t0 + _RESTART_AT + 0.05]
    assert post and max(post) > 0.0

    # the watchdog fired, inside the outage, once for the whole stall
    stalls = [b for b in store.breaches if b.kind == "stall"]
    assert len(stalls) == 1, stalls
    breach = stalls[0]
    assert _CRASH_AT < breach.time - t0 <= _RESTART_AT + 0.05
    assert breach.metric == "fabric.xfer.bytes"
    assert breach.extra["guard"] == "client.io.inflight"
    assert breach.extra["guard_mean"] > 0.0
    assert cluster.sim.metrics.counters["obs.slo.breaches"].value == len(
        store.breaches
    )
    # the breach also landed in the trace as a typed instant
    instants = [s for s in cluster.sim.tracer.spans if s.name == "slo.breach"]
    assert len(instants) == len(store.breaches)
    assert instants[0].attrs["kind"] == "stall"


def test_chaos_timeline_is_deterministic():
    a_cluster, a_result = _run_timeline_chaos()
    b_cluster, b_result = _run_timeline_chaos()
    assert a_result == b_result
    assert (a_cluster.sim.timeline.store.to_json()
            == b_cluster.sim.timeline.store.to_json())
