"""Rebuild under chaos: writes racing an exclusion window.

The acceptance scenario for the rebuild engine in its natural habitat:
a client keeps streaming array writes while a schedule yanks a target
out mid-stream and reintegrates it before the stream ends. After the
resync drains, the full object must read back byte-identical — for the
replicated AND the erasure-coded class. ``run_chaos`` additionally holds
every settled run to the replica-consistency invariant (all live group
members agree, EC parity verifies).
"""

import pytest

from repro.daos.oclass import oclass_by_name
from repro.daos.vos.payload import PatternPayload
from repro.errors import DerDataLoss, DerTimedOut
from repro.faults import ExcludeTarget, FaultSchedule, ReintegrateTarget
from repro.units import MiB

from tests.faults.harness import run_chaos, run_random_kv_chaos

pytestmark = pytest.mark.chaos

#: the window [0.4s, 1.4s) lands mid-stream: ~10 of the 24 chunks are
#: written while the victim is DOWN or REBUILDING
_VICTIM = 1
_CHUNKS = 24
_PACE = 0.1


def window_schedule(cluster) -> FaultSchedule:
    return (
        FaultSchedule()
        .at(0.4, ExcludeTarget(_VICTIM))
        .at(1.4, ReintegrateTarget(_VICTIM))
    )


def streaming_workload(oclass_name):
    """Write _CHUNKS MiB-chunks paced so the exclusion window splits the
    stream, then drain the rebuild and verify every byte."""

    def workload(cluster, inj):
        client = cluster.new_client(0)
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("stream", oclass=oclass_name)
        oid = yield from cont.alloc_oid(oclass_by_name(oclass_name))
        obj = cont.open_object(oid)
        pattern = PatternPayload(seed=6, origin=0, nbytes=_CHUNKS * MiB)
        for i in range(_CHUNKS):
            chunk = pattern.slice(i * MiB, (i + 1) * MiB)
            for _attempt in range(40):
                try:
                    yield from obj.write(i * MiB, chunk, chunk_size=MiB)
                    break
                except (DerTimedOut, DerDataLoss) as exc:
                    inj.note(f"write chunk {i} retrying: {exc}")
                    yield 0.05
                    yield from pool.refresh_map()
            else:
                raise AssertionError(f"chunk {i} never acknowledged")
            yield _PACE
        inj.note(f"stream done ({_CHUNKS} chunks)")
        yield from cluster.daos.wait_rebuild(pool.pool_map.uuid)
        yield from pool.refresh_map()
        back = yield from obj.read(0, _CHUNKS * MiB, chunk_size=MiB)
        data = back.materialize()
        if data != pattern.materialize():
            raise AssertionError("read-back diverged after resync")
        inj.note("read-back byte-identical after resync")
        obj.close()
        return len(data)

    return workload


@pytest.mark.parametrize("oclass_name", ["RP_2GX", "EC_2P1GX"])
def test_write_during_window_resyncs_byte_identical(oclass_name):
    run = run_chaos(streaming_workload(oclass_name), window_schedule)
    assert run.result == _CHUNKS * MiB
    # the schedule really opened and closed the window...
    assert f"target {_VICTIM} DOWN".encode() in run.trace_bytes
    assert f"target {_VICTIM} REBUILDING".encode() in run.trace_bytes
    # ...and the workload verified every byte afterwards
    assert b"read-back byte-identical after resync" in run.trace_bytes
    # the settled pool is fully healthy again
    pool_uuid = run.cluster.pool.uuid
    query = run.cluster.daos.pool_query(pool_uuid)
    assert query["targets"] == {}
    assert pool_uuid not in run.cluster.daos.rebuild._runners
    # storage-level invariant counters cover the streamed object
    assert run.consistency["objects"] >= 1


def test_random_chaos_draws_reintegration_and_stays_consistent():
    """Random schedules now pair every exclusion with a reintegration
    (seed 0xDA05 draws one); the KV storm rides through it and the
    settled cluster passes the replica-consistency sweep."""
    run = run_random_kv_chaos(0xDA05)
    assert b"inject ExcludeTarget" in run.trace_bytes
    assert b"inject ReintegrateTarget" in run.trace_bytes
    assert b"REBUILDING" in run.trace_bytes
    assert b"replica consistency ok" in run.trace_bytes
    assert run.consistency["pools"] >= 1
    assert run.consistency["groups"] >= 1
