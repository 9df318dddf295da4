"""Chaos: fields archived before an engine crash are retrievable after
restart, bit-for-bit.

VOS shards persist across engine crash/restart (media outlives the
process), so a flushed forecast cycle must survive: the landmark is
readable and every field verifies against its content pattern. Run per
backend family — the native KV path and the DFS file-per-field path
exercise different recovery surfaces (object RPCs vs namespace walks).
"""

import pytest

from repro.cluster import build_cluster
from repro.faults import CrashEngine, FaultSchedule, RestartEngine
from repro.fdb import (
    Archiver,
    FdbParams,
    FieldQuery,
    Retriever,
    make_fields,
    open_store,
)
from repro.units import KiB

pytestmark = pytest.mark.chaos

FIELD_BYTES = 64 * KiB


@pytest.mark.parametrize("backend", ["kv", "dfs"])
def test_retrieve_after_engine_restart(backend):
    params = FdbParams(backend=backend, n_params=2, n_steps=3,
                       field_bytes=FIELD_BYTES, depth=4)
    keys = make_fields(n_params=2, n_steps=3)
    cluster = build_cluster(server_nodes=2, client_nodes=1, seed=0xDA05)

    def archive():
        mapping, index = yield from open_store(cluster, params)
        archiver = Archiver(cluster.sim, mapping, index, depth=params.depth)
        yield from archiver.setup(keys)
        yield from archiver.archive(keys, FIELD_BYTES)
        landmark = yield from archiver.flush("cycle-001")
        yield from archiver.close()
        return mapping, index, landmark

    mapping, index, landmark = cluster.run(archive())
    assert landmark["fields"] == len(keys)

    # crash one engine after the flush, restart it, let both fire
    cluster.inject(
        FaultSchedule()
        .at(0.05, CrashEngine(rank=1))
        .at(0.25, RestartEngine(rank=1))
    )

    def wait():
        yield 0.5

    cluster.run(wait())

    def retrieve():
        record = yield from index.get_landmark("cycle-001")
        retriever = Retriever(cluster.sim, mapping, index, depth=params.depth)
        got = yield from retriever.retrieve(FieldQuery())
        return record, retriever, got

    record, retriever, got = cluster.run(retrieve())
    # the landmark survived the crash...
    assert record == landmark
    # ...and every archived field came back, content-verified
    assert [key.canonical for key in got] == sorted(
        key.canonical for key in keys
    )
    assert retriever.fields == len(keys)
    assert retriever.bytes == len(keys) * FIELD_BYTES


def test_archive_rides_through_crash_restart_window():
    """An archive burst started before a crash completes correctly once
    the engine returns: RPCs to the crashed engine time out and retry,
    no acknowledged field is lost."""
    params = FdbParams(backend="kv", n_params=2, n_steps=3,
                       field_bytes=FIELD_BYTES, depth=4)
    keys = make_fields(n_params=2, n_steps=3)
    cluster = build_cluster(server_nodes=2, client_nodes=1, seed=0xDA05)
    cluster.inject(
        FaultSchedule()
        .at(0.05, CrashEngine(rank=1))
        .at(0.25, RestartEngine(rank=1))
    )

    def go():
        mapping, index = yield from open_store(cluster, params)
        archiver = Archiver(cluster.sim, mapping, index, depth=params.depth)
        yield from archiver.setup(keys)
        yield 0.04  # land the burst right before the crash window
        yield from archiver.archive(keys, FIELD_BYTES)
        landmark = yield from archiver.flush("cycle-001")
        yield from archiver.close()
        retriever = Retriever(cluster.sim, mapping, index, depth=params.depth)
        got = yield from retriever.retrieve(FieldQuery())
        return landmark, got

    landmark, got = cluster.run(go())
    assert landmark["fields"] == len(keys)
    assert len(got) == len(keys)
