"""Mixed-backend FDB runs: verified round-trips, bitwise determinism.

Every backend archives a seeded grid, flushes a landmark and retrieves
the grid back with content verification on (a wrong byte anywhere raises
inside the run). Determinism is pinned the strong way: two full runs —
separate clusters, same params — must produce byte-identical report
*and* timeline JSON.
"""

import json
import re
import textwrap

import pytest

from repro import fdb
from repro.cluster import build_system
from repro.fdb import (
    Archiver,
    FdbParams,
    FieldQuery,
    Retriever,
    archive_and_retrieve,
    boot,
    build_report,
    make_fields,
    open_store,
    render_report,
)
from repro.fdb.index import LANDMARK_PREFIX, KvIndex
from repro.fdb.mapping import LANDMARK_ROOT
from repro.units import KiB

#: small grid every backend test shares: 2 params x 3 steps = 6 fields
GRID = dict(n_params=2, n_steps=3, field_bytes=64 * KiB, depth=4)


def read_landmark(index, name):
    """Task helper: the flush record ``index`` holds under ``name``."""
    if isinstance(index, KvIndex):
        return (yield from index.kv.get(LANDMARK_PREFIX + name))
    return (yield from index._read(f"{LANDMARK_ROOT}/{name}"))


def _run(params, **observe):
    """One run, observed as ``repro-fdb`` does it: boot, then
    ``cluster.observe(**observe)`` when asked, then drive."""
    cluster = boot(params)
    if observe:
        cluster.observe(**observe)
    result = archive_and_retrieve(cluster, params)
    store = cluster.sim.timeline.store if cluster.sim.timeline else None
    report = build_report(result, store=store)
    timeline = store.to_json() if store is not None else None
    return result, report, timeline


#: each backend with its default index, then the non-default pairings
PAIRINGS = [("kv", ""), ("array", ""), ("dfs", ""), ("lustre", ""),
            ("dfs", "kv"), ("kv", "tree")]


@pytest.mark.parametrize(
    "backend,index", PAIRINGS,
    ids=[f"{b}-{i}" if i else b for b, i in PAIRINGS],
)
def test_round_trip_verified_and_deterministic(backend, index):
    # interval sized to the ~1ms simulated run so windows actually fire
    params = FdbParams(backend=backend, index=index, **GRID)
    observe = dict(tracing=False, timeline_interval=0.0002)
    result, report, timeline = _run(params, **observe)

    assert timeline["n_windows"] > 0 and timeline["series"]

    assert report["archive"]["fields"] == 6
    assert report["retrieve"]["fields"] == 6  # verify=True checked bytes
    assert report["retrieve"]["bytes"] == 6 * 64 * KiB
    assert result["matched"] == sorted(result["matched"])
    assert report["landmarks"][0]["fields"] == 6
    render_report(report)  # must not raise

    result2, report2, timeline2 = _run(params, **observe)
    assert json.dumps(report, sort_keys=True) == json.dumps(
        report2, sort_keys=True
    )
    assert json.dumps(timeline, sort_keys=True) == json.dumps(
        timeline2, sort_keys=True
    )


def test_traced_sync_run_breakdown_sums_to_wall():
    params = FdbParams(backend="kv", sync=True, **GRID)
    _result, report, _timeline = _run(params, tracing=True)
    for phase in ("archive", "retrieve"):
        breakdown = report[phase]["breakdown"]
        assert breakdown, phase
        assert "engine" in breakdown
        # serial execution: exclusive layer times plus the wait
        # remainder sum to the phase wall exactly
        assert sum(breakdown.values()) == pytest.approx(
            report[phase]["wall"]
        )


def test_traced_async_run_breakdown_shows_pipelining():
    params = FdbParams(backend="kv", sync=False, **GRID)
    _result, report, _timeline = _run(params, tracing=True)
    breakdown = report["archive"]["breakdown"]
    assert breakdown["engine"] > 0
    # depth-4 pipelining overlaps spans, so total layer-seconds exceed
    # the wall — that surplus IS the concurrency the async path buys
    assert sum(breakdown.values()) > report["archive"]["wall"]


def test_async_pipeline_beats_sync_at_depth_4():
    sync_result, _, _ = _run(FdbParams(backend="kv", sync=True, **GRID))
    async_result, _, _ = _run(FdbParams(backend="kv", sync=False, **GRID))
    assert async_result["archive"]["wall"] < sync_result["archive"]["wall"]
    assert async_result["retrieve"]["wall"] < sync_result["retrieve"]["wall"]


def test_retrieve_params_narrow_the_scatter():
    params = FdbParams(backend="array", retrieve_params=("t2m",), **GRID)
    result, report, _ = _run(params)
    assert report["archive"]["fields"] == 6
    assert report["retrieve"]["fields"] == 3  # one param's steps only
    assert all(name.startswith("t2m/") for name in result["matched"])


def _archived(params, body):
    """Boot, open the store, archive and flush ``params``' grid as
    ``cycle-001``, then run ``body(mapping, index, landmark)``."""
    keys = make_fields(n_params=params.n_params, n_steps=params.n_steps)
    cluster = build_system(params.backend == "lustre", 2, 1, params.seed)

    def go():
        mapping, index = yield from open_store(cluster, params)
        archiver = Archiver(cluster.sim, mapping, index, depth=params.depth)
        yield from archiver.setup(keys)
        yield from archiver.archive(keys, params.field_bytes)
        landmark = yield from archiver.flush("cycle-001")
        yield from archiver.close()
        return (yield from body(cluster.sim, mapping, index, landmark))

    return keys, cluster.run(go())


def test_query_object_narrows_by_non_prefix_axis():
    """Axis predicates past the shared prefix are post-filtered (the
    index scan sees only the param prefix, the query trims the rest)."""

    def body(sim, mapping, index, _landmark):
        retriever = Retriever(sim, mapping, index, depth=4)
        got = yield from retriever.retrieve(FieldQuery(step=(0, 6)))
        return [key.canonical for key in got]

    keys, got = _archived(FdbParams(backend="kv", **GRID), body)
    assert got == sorted(
        key.canonical for key in keys if key.step in (0, 6)
    )


@pytest.mark.parametrize("backend,index",
                         [("kv", "kv"), ("kv", "tree"), ("lustre", "tree")])
def test_landmark_reads_back_the_flush_record(backend, index):
    def body(_sim, _mapping, index, landmark):
        record = yield from read_landmark(index, "cycle-001")
        return landmark, record

    _keys, (landmark, record) = _archived(
        FdbParams(backend=backend, index=index, **GRID), body
    )
    assert landmark["fields"] == 6
    assert record == landmark


def test_package_docstring_example_runs(capsys):
    blocks = re.findall(r"::\n\n((?:    .*\n|\n)+)", fdb.__doc__)
    namespace = {}
    exec("\n".join(textwrap.dedent(block) for block in blocks), namespace)
    assert namespace["report"]["retrieve"]["fields"] == 8
    assert len(namespace["found"]) == 4  # the t2m steps
    assert "fdb: 8 fields" in capsys.readouterr().out
