"""Fault-correctness of the write-behind cache (DESIGN.md §8.2).

The guarantee under test: an engine crash while write-behind data is
still buffered must surface a typed :class:`CacheWritebackError` on
``fsync``/``close`` — naming the exact dirty extents — and never
silently drop bytes. The buffer keeps the data across the failure, so a
retry after the engines restart commits everything, and a full
read-back proves zero loss.
"""

import pytest

from repro.cache.config import CacheConfig
from repro.daos.vos.payload import PatternPayload
from repro.dfs import Dfs
from repro.errors import CacheWritebackError
from repro.faults import CrashEngine, FaultSchedule, RestartEngine
from repro.units import KiB

from tests.faults.harness import run_chaos

pytestmark = pytest.mark.chaos

_NBYTES = 256 * KiB
_CRASH_AT = 0.5
_RESTART_AT = 2.0


def crash_all_engines_schedule(cluster) -> FaultSchedule:
    """Crash every engine mid-run (no target survives to absorb the
    flush), restart them all later."""
    schedule = FaultSchedule()
    for rank in range(len(cluster.daos.engines)):
        schedule.at(_CRASH_AT, CrashEngine(rank))
        schedule.at(_RESTART_AT, RestartEngine(rank))
    return schedule


def writeback_crash_workload(cluster, inj):
    client = cluster.new_client(0)
    pool = yield from client.connect_pool("tank")
    cont = yield from pool.create_container("wb-chaos", oclass="S1")
    cache = CacheConfig(mode="writeback", capacity="4m")
    dfs = yield from Dfs.mount(cont, cache=cache)
    handle = yield from dfs.open_file("/f", create=True)
    payload = PatternPayload(99, 0, _NBYTES)
    yield from handle.write(0, payload)  # buffered, below watermark
    inj.note(f"buffered {handle.wb.dirty_bytes} dirty bytes")

    # ride past the crash, then try to make the data durable
    yield _CRASH_AT + 0.2
    outcome = {}
    try:
        yield from handle.sync()
    except CacheWritebackError as err:
        outcome["fsync_error"] = (err.path, err.lost_bytes, list(err.pending))
        inj.note(f"fsync surfaced typed error: {err}")
    try:
        handle.close()
    except CacheWritebackError as err:
        outcome["close_error"] = err.lost_bytes
        inj.note("close refused to drop dirty bytes")
    outcome["dirty_after_crash"] = handle.wb.dirty_bytes

    # wait for the engines to come back, then retry the same handle
    while cluster.sim.now < _RESTART_AT + 0.2:
        yield 0.1
    yield from handle.sync()
    outcome["dirty_after_retry"] = handle.wb.dirty_bytes
    handle.close()
    inj.note("retry flush committed after restart")

    reader = yield from dfs.open_file("/f")
    back = yield from reader.read(0, _NBYTES)
    outcome["verified"] = back.materialize() == payload.materialize()
    reader.close()
    inj.note(f"read-back verified={outcome['verified']}")
    return outcome


def test_engine_crash_surfaces_typed_error_then_retry_commits(chaos_seed):
    run = run_chaos(
        writeback_crash_workload, crash_all_engines_schedule, seed=chaos_seed
    )
    out = run.result
    path, lost, pending = out["fsync_error"]
    assert path == "/f"
    assert lost == _NBYTES
    assert pending == [(0, _NBYTES)]
    # close also refused to drop the same bytes, and nothing was lost
    assert out["close_error"] == _NBYTES
    assert out["dirty_after_crash"] == _NBYTES
    # after restart the same buffer flushed clean and the data is real
    assert out["dirty_after_retry"] == 0
    assert out["verified"] is True
    assert b"typed error" in run.trace_bytes
    assert b"retry flush committed" in run.trace_bytes


def test_cache_chaos_trace_is_deterministic(chaos_seed):
    a = run_chaos(writeback_crash_workload, crash_all_engines_schedule,
                  seed=chaos_seed)
    b = run_chaos(writeback_crash_workload, crash_all_engines_schedule,
                  seed=chaos_seed)
    assert a.trace_bytes == b.trace_bytes
    assert a.result == b.result
