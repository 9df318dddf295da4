"""HDF5 interface sweep — posix-vol vs daos-vol vs DFS, fpp + shared
collective, sync vs ``--aio-depth 4`` — at the Figure 2 point geometry.

Each cell runs one IOR invocation on a fresh 1-client nextgenio cluster
(4 MiB block, 1 MiB transfer, ppn 4, oclass SX — the pinned seed-figure
point). The headline claims the pytest entry gates:

- the native-format HDF5 fpp path stays **byte-identical** to the
  pinned pre-VOL seed figures (and so does DFS) — the VOL refactor is a
  pure seam;
- the DAOS VOL moves the HDF5 points toward DFS: ``HDF5-DAOS`` reaches
  at least 0.8x the DFS bandwidth on the matching cell and leaves the
  staging-bound native fpp path far behind;
- ``--aio-depth 4`` beats sync on every async-capable cell, including
  shared-file collective HDF5, whose aggregators now pipeline their
  cb_buffer chunks through the event queue.

Seeded end to end: ``make bench-hdf5`` runs the sweep twice and ``cmp``s
the machine-independent projections byte for byte.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

from repro.cluster import nextgenio
from repro.ior import IorParams, run_ior

#: the pinned pre-VOL seed figures for this exact geometry (see
#: tests/cache/test_cache_determinism.py SEED_FIGURES)
HDF5_FPP_SEED = (1641572949.8746657, 1876602550.7834647)
DFS_FPP_SEED = (6142348807.511658, 4306533837.826945)

DEPTH = 4
#: collective-buffering chunk small enough that one aggregator's domain
#: splits into several in-flight transfers
CB_BUFFER = "1m"

#: (api, file_per_proc, collective, aio_depth)
CELLS = (
    ("HDF5", True, False, 0),
    ("HDF5", False, True, 0),
    ("HDF5", False, True, DEPTH),
    ("HDF5-DAOS", True, False, 0),
    ("HDF5-DAOS", True, False, DEPTH),
    ("HDF5-DAOS", False, False, 0),
    ("HDF5-DAOS", False, False, DEPTH),
    ("DFS", True, False, 0),
    ("DFS", True, False, DEPTH),
    ("DFS", False, False, 0),
    ("DFS", False, False, DEPTH),
)


def _cell(api, fpp, collective, depth):
    cluster = nextgenio(client_nodes=1)
    params = IorParams(
        api=api,
        file_per_proc=fpp,
        collective=collective,
        oclass="SX",
        block_size="4m",
        transfer_size="1m",
        cb_buffer=CB_BUFFER,
        aio_queue_depth=depth,
    )
    t0 = time.perf_counter()
    result = run_ior(cluster, params, ppn=4)
    wall = time.perf_counter() - t0
    return {
        "api": api,
        "file_per_proc": fpp,
        "collective": collective,
        "aio_depth": depth,
        "write_bw": result.max_write_bw,
        "read_bw": result.max_read_bw,
        "wall_seconds": round(wall, 3),  # informational; machine-dependent
    }


def run_sweep():
    return {"sweep": [_cell(*cell) for cell in CELLS]}


def main(argv=None) -> int:
    from conftest import write_artifact

    doc, out = write_artifact(run_sweep, __doc__.splitlines()[0],
                              "artifacts/BENCH_hdf5.json", argv)
    print(f"wrote {out}: {len(doc['sweep'])} cells")
    for cell in doc["sweep"]:
        mode = "fpp" if cell["file_per_proc"] else (
            "shared-coll" if cell["collective"] else "shared"
        )
        print(f"  {cell['api']:>9} {mode:<11} depth={cell['aio_depth']}: "
              f"w {cell['write_bw'] / 1e9:6.2f} GB/s, "
              f"r {cell['read_bw'] / 1e9:6.2f} GB/s")
    return 0


# -- pytest-benchmark entry point (make bench) -------------------------------


def test_hdf5_sweep(benchmark):
    from conftest import run_once

    doc = run_once(benchmark, run_sweep)
    cells = {
        (c["api"], c["file_per_proc"], c["collective"], c["aio_depth"]): c
        for c in doc["sweep"]
    }

    # the VOL refactor is a pure seam: the native paths are byte-equal
    # to the pre-VOL pinned figures (pure float equality, no tolerance)
    native = cells[("HDF5", True, False, 0)]
    assert (native["write_bw"], native["read_bw"]) == HDF5_FPP_SEED
    dfs = cells[("DFS", True, False, 0)]
    assert (dfs["write_bw"], dfs["read_bw"]) == DFS_FPP_SEED

    # the daos-vol moves the Figure 2 HDF5 point toward DFS
    for fpp in (True, False):
        daos_vol = cells[("HDF5-DAOS", fpp, False, 0)]
        dfs_cell = cells[("DFS", fpp, False, 0)]
        assert daos_vol["write_bw"] >= 0.8 * dfs_cell["write_bw"], fpp
        assert daos_vol["read_bw"] >= 0.8 * dfs_cell["read_bw"], fpp
    # ...and leaves the staging-bound native fpp path far behind
    assert cells[("HDF5-DAOS", True, False, 0)]["write_bw"] > \
        2 * native["write_bw"]

    # async pipelining beats sync on every async-capable cell
    for api, fpp, coll in (
        ("HDF5", False, True),
        ("HDF5-DAOS", True, False),
        ("HDF5-DAOS", False, False),
        ("DFS", True, False),
        ("DFS", False, False),
    ):
        sync = cells[(api, fpp, coll, 0)]
        deep = cells[(api, fpp, coll, DEPTH)]
        assert deep["write_bw"] > sync["write_bw"], (api, fpp, coll)


if __name__ == "__main__":
    sys.exit(main())
