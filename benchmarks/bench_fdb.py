"""Field-database sweep — object size x backend x sync/async, plus the
Lustre contrast and a 100k-field determinism acceptance run.

Each sweep cell archives and retrieves a small field grid through one
``(mapping, pipeline)`` combination and records the numbers the papers
argue about: archive/retrieve bandwidth, fields/s, exact per-field tail
latencies. The headline shape claim is pinned by the pytest entry: the
native KV and array mappings beat file-per-field DFS at small object
sizes, DFS overtakes KV past the crossover size (recorded in the
artifact), and the async event-queue pipeline beats blocking I/O at
depth >= 4.

The *acceptance* cell is the scale gate: a seeded 100k-field archive on
the KV backend, flushed, then a scattered retrieve of one parameter
(10k fields) with the timeline scraper on. Its report and timeline JSON
are hashed into the artifact, so the ``make bench-fdb`` double-run
``cmp`` pins the whole run bitwise across processes.

``python benchmarks/bench_fdb.py --out artifacts/BENCH_fdb.json`` writes
the artifact; ``REPRO_BENCH_FULL=1`` widens the size grid.
"""

import hashlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

from repro.fdb import FdbParams, build_report, run_fdb
from repro.units import KiB, MiB

#: quick size grid; REPRO_BENCH_FULL=1 adds the intermediate points
SIZES = (64 * KiB, 1 * MiB, 16 * MiB)
FULL = os.environ.get("REPRO_BENCH_FULL", "") == "1"
if FULL:
    SIZES = (64 * KiB, 256 * KiB, 1 * MiB, 4 * MiB, 16 * MiB)

#: DAOS-side field mappings swept against each other
BACKENDS = ("kv", "array", "dfs")
DEPTH = 4

#: per-cell grid: 2 params x 4 steps = 8 fields (size carries the cost)
GRID = dict(n_params=2, n_steps=4)


def _phase_stats(report, phase):
    p = report[phase]
    return {
        "bandwidth": p["bandwidth"],
        "fields_per_s": p["fields_per_s"],
        "p50": p["latency"]["p50"],
        "p99": p["latency"]["p99"],
    }


def _cell(backend, size, sync):
    params = FdbParams(backend=backend, field_bytes=size, depth=DEPTH,
                       sync=sync, **GRID)
    t0 = time.perf_counter()
    result, _cluster = run_fdb(params)
    wall = time.perf_counter() - t0
    report = build_report(result)
    return {
        "backend": backend,
        "size": size,
        "sync": sync,
        "fields": report["fields"],
        "archive": _phase_stats(report, "archive"),
        "retrieve": _phase_stats(report, "retrieve"),
        "sim_end": report["end_time"],
        "wall_seconds": round(wall, 3),  # informational; machine-dependent
    }


def _acceptance_cell():
    """100k fields archived, one param (10k fields) scatter-retrieved,
    timeline on; the report and timeline hashes are the bitwise gate."""
    params = FdbParams(
        backend="kv",
        n_params=10, n_levels=5, n_steps=10, n_members=4, n_dates=50,
        field_bytes=4 * KiB,
        depth=8,
        retrieve_params=("t2m",),
        timeline_interval=0.05,
    )
    t0 = time.perf_counter()
    result, cluster = run_fdb(params)
    wall = time.perf_counter() - t0
    store = cluster.sim.timeline.store
    report = build_report(result, store=store)
    report_bytes = json.dumps(report, sort_keys=True).encode("utf-8")
    timeline_bytes = json.dumps(
        store.to_json(), sort_keys=True
    ).encode("utf-8")
    return {
        "fields": report["fields"],
        "archived": report["archive"]["fields"],
        "retrieved": report["retrieve"]["fields"],
        "archive_bandwidth": report["archive"]["bandwidth"],
        "retrieve_bandwidth": report["retrieve"]["bandwidth"],
        "landmark": report["landmarks"][0],
        "timeline_windows": store.to_json()["n_windows"],
        "slo_breaches": len(report["slo_breaches"]),
        "report_sha256": hashlib.sha256(report_bytes).hexdigest(),
        "timeline_sha256": hashlib.sha256(timeline_bytes).hexdigest(),
        "sim_end": report["end_time"],
        "wall_seconds": round(wall, 3),  # informational; machine-dependent
    }


def _crossover(cells):
    """Smallest swept size where file-per-field DFS archives faster than
    the KV mapping (async cells); None when DFS never catches up."""
    by_size = {}
    for cell in cells:
        if not cell["sync"]:
            by_size.setdefault(cell["size"], {})[cell["backend"]] = cell
    for size in sorted(by_size):
        row = by_size[size]
        if row["dfs"]["archive"]["bandwidth"] > \
                row["kv"]["archive"]["bandwidth"]:
            return size
    return None


def run_sweep():
    cells = [
        _cell(backend, size, sync)
        for size in SIZES
        for backend in BACKENDS
        for sync in (True, False)
    ]
    lustre = [_cell("lustre", size, False) for size in SIZES]
    return {
        "sweep": cells,
        "lustre": lustre,
        "crossover_bytes": _crossover(cells),
        "acceptance": _acceptance_cell(),
    }


def main(argv=None) -> int:
    from conftest import write_artifact

    doc, out = write_artifact(run_sweep, __doc__.splitlines()[0],
                              "artifacts/BENCH_fdb.json", argv)
    acc = doc["acceptance"]
    print(f"wrote {out}: {len(doc['sweep'])} sweep cells + "
          f"{len(doc['lustre'])} lustre cells + 100k acceptance")
    cross = doc["crossover_bytes"]
    print(f"  kv->dfs archive crossover: "
          f"{cross // KiB} KiB" if cross else "  no crossover in grid")
    print(f"  acceptance: {acc['archived']} archived, "
          f"{acc['retrieved']} retrieved, report sha "
          f"{acc['report_sha256'][:12]}..., "
          f"{acc['wall_seconds']}s wall")
    return 0


# -- pytest-benchmark entry points (make bench) ------------------------------


def test_fdb_sweep(benchmark):
    from conftest import run_once

    doc = run_once(benchmark, run_sweep)
    cells = {
        (c["backend"], c["size"], c["sync"]): c for c in doc["sweep"]
    }
    smallest, largest = min(SIZES), max(SIZES)

    # the paper's shape claim: native object mappings beat file-per-field
    # at small object sizes...
    small_dfs = cells[("dfs", smallest, False)]["archive"]["bandwidth"]
    assert cells[("kv", smallest, False)]["archive"]["bandwidth"] > small_dfs
    assert cells[("array", smallest, False)]["archive"]["bandwidth"] > \
        small_dfs
    # ...and striping wins once fields dwarf the per-file overhead
    assert cells[("dfs", largest, False)]["archive"]["bandwidth"] > \
        cells[("kv", largest, False)]["archive"]["bandwidth"]
    assert doc["crossover_bytes"] is not None
    assert smallest < doc["crossover_bytes"] <= largest

    # the async event-queue pipeline beats blocking I/O at depth >= 4
    for size in SIZES:
        for backend in BACKENDS:
            assert (
                cells[(backend, size, False)]["archive"]["fields_per_s"]
                > cells[(backend, size, True)]["archive"]["fields_per_s"]
            ), (backend, size)

    # the 100k-field acceptance run completed and hashed
    acc = doc["acceptance"]
    assert acc["archived"] == 100_000
    assert acc["retrieved"] == 10_000
    assert acc["landmark"]["fields"] == 100_000
    assert len(acc["report_sha256"]) == 64
    assert len(acc["timeline_sha256"]) == 64
    assert acc["timeline_windows"] > 0


if __name__ == "__main__":
    sys.exit(main())
